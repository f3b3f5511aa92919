// Whole-file IO shared by every persisted format.  read_file() reads a
// file whole; write_file_durably() replaces one so that a crash at any
// point leaves either the previous file or the complete new one: the
// bytes go to "<path>.tmp", which is fsynced *before* it is renamed over
// `path`, and the parent directory is fsynced *after*, so the rename itself
// survives power loss.  Both throw the caller's error type (SnapshotError,
// JournalError) with a message naming the file and the step that failed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bgpintent::util {

namespace detail {
// Each returns an empty string on success, otherwise what failed.
[[nodiscard]] std::string read_file(const std::string& path,
                                    std::vector<std::uint8_t>& out);
[[nodiscard]] std::string write_file_durably(
    const std::string& path, std::span<const std::uint8_t> bytes);
}  // namespace detail

template <typename Error>
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (std::string failure = detail::read_file(path, bytes); !failure.empty())
    throw Error(failure);
  return bytes;
}

template <typename Error>
void write_file_durably(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  if (std::string failure = detail::write_file_durably(path, bytes);
      !failure.empty())
    throw Error(failure);
}

/// Makes creations and renames inside `directory` durable.  Best effort:
/// some filesystems refuse a directory fsync.
void fsync_directory(const std::string& directory);

}  // namespace bgpintent::util
