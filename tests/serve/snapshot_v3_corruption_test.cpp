// State image corruption fuzz sweep (docs/ROBUSTNESS.md): seeded
// bit-flip / truncation / splice / length-lie damage aimed at every named
// region of an image — each segment, the segment table, and the footer.
// The contract under test: every corruption is rejected with a
// SnapshotError (never a misparse, never a crash) by the one reader, both
// when it decodes onto the heap and when it maps the file, and a bit-flip
// inside a segment is blamed on that segment by name.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bgp/community.hpp"
#include "mrt/fault.hpp"
#include "serve/snapshot.hpp"
#include "support/serve_engine.hpp"
#include "support/temp_path.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {
namespace {

using stream::ImageRegion;

/// Image regions are flat byte ranges with no per-record framing: a
/// "length lie" degenerates into stomping the region's first word, which
/// the checksums must still catch.
constexpr mrt::FrameLayout kFlatRegionLayout{0, 0, false};

bgp::RibEntry entry(std::uint32_t vp, std::vector<bgp::Asn> path,
                    std::vector<bgp::Community> communities) {
  bgp::RibEntry e;
  e.vantage_point.asn = vp;
  e.vantage_point.address = vp;
  e.route.prefix = *bgp::Prefix::parse("10.0.0.0/24");
  e.route.path = bgp::AsPath(std::move(path));
  e.route.communities = std::move(communities);
  return e;
}

/// One populated image, built once: settled labels, dirty alphas, buffered
/// events and repeated paths, so every segment has content to damage.
const std::vector<std::uint8_t>& base_image() {
  static const std::vector<std::uint8_t> bytes = [] {
    stream::StreamEngine engine(test_support::serve_window());
    for (std::uint32_t vp = 61; vp < 66; ++vp)
      engine.announce(entry(vp, {vp, 100, 201}, {bgp::Community(100, 20000)}));
    for (std::uint32_t vp = 70; vp < 90; ++vp)
      engine.announce(entry(vp, {vp, 999, 201}, {bgp::Community(100, 2569),
                                                 bgp::Community(999, 30)}));
    (void)engine.label_of(bgp::Community(100, 20000));
    engine.announce(entry(61, {61, 64512, 201}, {bgp::Community(64512, 7)}));
    return engine.encode_image();
  }();
  return bytes;
}

const std::vector<ImageRegion>& base_regions() {
  static const std::vector<ImageRegion> regions =
      stream::image_regions(base_image());
  return regions;
}

/// Both read paths must reject `bytes`; returns the heap decoder's message
/// for blame assertions.
std::string expect_both_readers_reject(const std::vector<std::uint8_t>& bytes,
                                       const std::string& label) {
  std::string message;
  try {
    (void)stream::decode_image(bytes);
    ADD_FAILURE() << label << ": heap decode accepted a corrupt image";
  } catch (const SnapshotError& error) {
    message = error.what();
    EXPECT_FALSE(message.empty()) << label;
  }

  const std::string path = test_support::unique_temp_path("v3fuzz.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << label;
  }
  try {
    (void)MappedSnapshot::open(path);
    ADD_FAILURE() << label << ": mmap open accepted a corrupt image";
  } catch (const SnapshotError&) {
  }
  std::remove(path.c_str());
  return message;
}

TEST(SnapshotV3Corruption, BaseImageIsValidAndFullyRegioned) {
  EXPECT_NO_THROW((void)stream::decode_image(base_image()));
  ASSERT_EQ(base_regions().size(), 17u);
  std::size_t damageable = 0;
  for (const auto& region : base_regions())
    if (region.length >= 2) ++damageable;
  // Every region must be populated, or the sweep proves nothing.
  EXPECT_EQ(damageable, 17u);
}

// The full sweep: every region x every corruption kind x several seeds.
TEST(SnapshotV3Corruption, EveryRegionRejectsEveryDamageKind) {
  std::size_t applied = 0;
  for (const auto& region : base_regions()) {
    if (region.length < 2) continue;  // nothing to aim at (empty column)
    const mrt::RecordSpan span{region.offset, region.length};
    for (const mrt::CorruptionKind kind : mrt::kAllCorruptionKinds) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string label =
            util::format("%s:%s:seed%llu", region.name.c_str(),
                         mrt::to_string(kind).data(),
                         static_cast<unsigned long long>(seed));
        const mrt::CorruptionResult result = mrt::corrupt_spans(
            base_image(), {&span, 1}, kFlatRegionLayout, kind, seed);
        // A length lie can coincidentally rewrite the word to its current
        // value; an unchanged image is not a corruption case.
        if (result.bytes == base_image()) continue;
        ++applied;
        (void)expect_both_readers_reject(result.bytes, label);
      }
    }
  }
  // 17 regions x 4 kinds x 3 seeds, minus the rare no-op length lie.
  EXPECT_GE(applied, 17u * 4u * 3u - 12u);
}

// A bit flip inside a column segment must be blamed on that segment by
// name: the operator learns *which* column rotted, not just "bad file".
TEST(SnapshotV3Corruption, BitFlipBlamesTheDamagedSegmentByName) {
  for (const auto& region : base_regions()) {
    if (region.length < 2) continue;
    if (region.name == "segment_table" || region.name == "footer") continue;
    const mrt::RecordSpan span{region.offset, region.length};
    const mrt::CorruptionResult result =
        mrt::corrupt_spans(base_image(), {&span, 1}, kFlatRegionLayout,
                           mrt::CorruptionKind::kBitFlip, 11);
    const std::string message =
        expect_both_readers_reject(result.bytes, region.name);
    EXPECT_NE(message.find(region.name), std::string::npos)
        << region.name << ": " << message;
  }
}

TEST(SnapshotV3Corruption, TruncationAtEveryRegionBoundaryIsRejected) {
  const auto& bytes = base_image();
  for (const auto& region : base_regions()) {
    std::vector<std::uint8_t> cut(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(region.offset));
    (void)expect_both_readers_reject(
        cut, util::format("cut-before-%s", region.name.c_str()));
  }
  std::vector<std::uint8_t> almost(bytes.begin(), bytes.end() - 1);
  (void)expect_both_readers_reject(almost, "cut-last-byte");
}

TEST(SnapshotV3Corruption, TrailingBytesAreRejected) {
  for (const std::size_t extra : {std::size_t{1}, std::size_t{64}}) {
    auto bytes = base_image();
    bytes.insert(bytes.end(), extra, 0);
    (void)expect_both_readers_reject(
        bytes, util::format("trailing-%zu", extra));
  }
}

TEST(SnapshotV3Corruption, NonZeroAlignmentPaddingIsRejected) {
  // Regions are 64-byte aligned, so the base image has padding gaps; a
  // flipped pad byte must not slip through unvalidated.
  const auto& regions = base_regions();
  std::size_t flipped = 0;
  for (std::size_t i = 1; i < regions.size(); ++i) {
    const std::size_t gap_start = regions[i - 1].offset + regions[i - 1].length;
    if (gap_start >= regions[i].offset) continue;
    auto bytes = base_image();
    bytes[gap_start] = 0xa5;
    ++flipped;
    (void)expect_both_readers_reject(
        bytes, util::format("pad-before-%s", regions[i].name.c_str()));
  }
  EXPECT_GT(flipped, 0u);
}

TEST(SnapshotV3Corruption, FooterSizeLieIsRejected) {
  auto bytes = base_image();
  // total_file_size is the last u64 of the 32-byte footer.
  bytes[bytes.size() - 8] ^= 0x01;
  (void)expect_both_readers_reject(bytes, "footer-size-lie");
}

}  // namespace
}  // namespace bgpintent::serve
