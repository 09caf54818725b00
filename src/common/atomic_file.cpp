#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/faultfs.h"

namespace wlc::common {

namespace {

void set_error(std::string* error, int* errno_out, const std::string& step,
               const std::string& path) {
  if (errno_out != nullptr) *errno_out = errno;
  if (error != nullptr)
    *error = step + " '" + path + "': " + std::strerror(errno);
}

/// open(2) with an EINTR retry loop; the direct ::open in this file
/// historically never saw EINTR in practice (no slow device paths), but the
/// faultfs EINTR-storm plans exercise it, and a snapshot must survive one.
int open_retry(const char* path, int flags, unsigned mode) {
  for (;;) {
    const int fd = faultfs::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// fsync(2) with an EINTR retry loop, same rationale as open_retry.
int fsync_retry(int fd) {
  for (;;) {
    const int rc = faultfs::fsync(fd);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

/// Best-effort fsync of the directory containing `path`, so the rename that
/// just happened inside it is durable. Some filesystems refuse O_RDONLY
/// directory fsync; that is not a correctness problem for the atomicity
/// guarantee (only for durability across power loss), so errors are ignored.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = open_retry(dir.c_str(), O_RDONLY, 0);
  if (fd >= 0) {
    fsync_retry(fd);
    ::close(fd);
  }
}

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool atomic_write_file(const std::string& path, std::string_view bytes, std::string* error,
                       int* errno_out, WriteStageTimes* times) {
  if (errno_out != nullptr) *errno_out = 0;
  const std::int64_t t0 = steady_us();
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid();
  const std::string tmp = tmp_name.str();

  const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    set_error(error, errno_out, "cannot create temp file", tmp);
    return false;
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = faultfs::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_error(error, errno_out, "cannot write temp file", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  const std::int64_t t1 = steady_us();
  if (fsync_retry(fd) != 0) {
    set_error(error, errno_out, "cannot fsync temp file", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    set_error(error, errno_out, "cannot close temp file", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, errno_out, "cannot rename temp file over", path);
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  if (times != nullptr) *times = {t1 - t0, steady_us() - t1};
  return true;
}

bool read_file_bytes(const std::string& path, std::string* bytes, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    set_error(error, nullptr, "cannot open", path);
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  if (f.bad()) {
    set_error(error, nullptr, "cannot read", path);
    return false;
  }
  *bytes = std::move(ss).str();
  return true;
}

}  // namespace wlc::common
