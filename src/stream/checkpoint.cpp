#include "stream/checkpoint.hpp"

#include <algorithm>
#include <filesystem>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".ckpt";

}  // namespace

std::string checkpoint_file_name(std::uint64_t records) {
  return util::format("%s%020llu%s", kCheckpointPrefix,
                      static_cast<unsigned long long>(records),
                      kCheckpointSuffix);
}

std::string checkpoint_path(const std::string& directory,
                            std::uint64_t records) {
  return (fs::path(directory) / checkpoint_file_name(records)).string();
}

void save_checkpoint(const std::string& directory, std::uint64_t records,
                     std::span<const std::uint8_t> image) {
  // A durable rename keeps the --checkpoint-interval bounded-replay
  // guarantee across power loss: an undone link would lose the checkpoint.
  util::write_file_durably<JournalError>(checkpoint_path(directory, records),
                                         image);
}

StateImage load_checkpoint(const std::string& path) {
  const std::vector<std::uint8_t> bytes = util::read_file<JournalError>(path);
  try {
    return decode_image(bytes);
  } catch (const ImageError& error) {
    throw JournalError(util::format("%s: %s", path.c_str(), error.what()));
  }
}

std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kCheckpointPrefix) ||
        !name.ends_with(kCheckpointSuffix))
      continue;
    const auto digits = std::string_view(name).substr(
        sizeof kCheckpointPrefix - 1,
        name.size() - (sizeof kCheckpointPrefix - 1) -
            (sizeof kCheckpointSuffix - 1));
    const auto records = util::parse_u64(digits);
    if (!records) continue;
    checkpoints.emplace_back(*records, entry.path().string());
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  return checkpoints;
}

}  // namespace bgpintent::stream
