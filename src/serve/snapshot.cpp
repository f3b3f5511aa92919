#include "serve/snapshot.hpp"

#include "util/file.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {

void save_snapshot(stream::StreamEngine& engine, const std::string& path) {
  engine.reclassify();
  util::write_file_durably<SnapshotError>(path, engine.encode_image());
}

stream::StateImage load_snapshot(const std::string& path) {
  return stream::decode_image(util::read_file<SnapshotError>(path));
}

std::shared_ptr<const MappedSnapshot> MappedSnapshot::open(
    const std::string& path) {
  std::unique_ptr<const mrt::ByteSource> source;
  try {
    source = mrt::open_source(path, /*allow_mmap=*/true);
  } catch (const mrt::MrtError& error) {
    throw SnapshotError(util::format("cannot map snapshot %s: %s",
                                     path.c_str(), error.what()));
  }
  const stream::ImageView view = stream::parse_image(source->data());
  return std::make_shared<const MappedSnapshot>(Private{}, std::move(source),
                                                view);
}

stream::StateImage MappedSnapshot::decode() const {
  return stream::decode_image(source_->data());
}

}  // namespace bgpintent::serve
