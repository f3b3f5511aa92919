#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/strings.hpp"

namespace bgpintent::util {
namespace {

/// "<what> <path>: <strerror(errno)>"; call right after the failing call.
[[nodiscard]] std::string failure(const char* what, const std::string& path) {
  return format("%s %s: %s", what, path.c_str(), std::strerror(errno));
}

}  // namespace

namespace detail {

std::string read_file(const std::string& path,
                      std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return failure("cannot open", path);
  // One byte past the reported size lets the read that returns EOF land
  // without a resize; the loop still reads whatever the file really holds.
  struct stat info {};
  out.resize(::fstat(fd, &info) == 0 && info.st_size > 0
                 ? static_cast<std::size_t>(info.st_size) + 1
                 : 4096);
  std::size_t size = 0;
  for (;;) {
    if (size == out.size()) out.resize(out.size() * 2);
    const ssize_t n = ::read(fd, out.data() + size, out.size() - size);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      std::string error = failure("cannot read", path);
      ::close(fd);
      return error;
    }
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(size);
  return {};
}

std::string write_file_durably(const std::string& path,
                               std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return failure("cannot open", tmp);
  std::string error;
  for (std::size_t written = 0; written < bytes.size();) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      error = failure("cannot write", tmp);
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  if (error.empty() && ::fsync(fd) != 0) error = failure("cannot fsync", tmp);
  if (::close(fd) != 0 && error.empty()) error = failure("cannot close", tmp);
  if (error.empty() && std::rename(tmp.c_str(), path.c_str()) != 0)
    error = format("cannot rename %s to %s: %s", tmp.c_str(), path.c_str(),
                   std::strerror(errno));
  if (!error.empty()) {
    std::remove(tmp.c_str());
    return error;
  }
  const std::string parent = std::filesystem::path(path).parent_path().string();
  fsync_directory(parent.empty() ? "." : parent);
  return {};
}

}  // namespace detail

void fsync_directory(const std::string& directory) {
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace bgpintent::util
