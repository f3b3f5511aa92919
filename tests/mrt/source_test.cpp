// ByteSource contract: MmapSource and BufferSource expose the same bytes,
// open_source picks between them (and reports which via zero_copy()), and
// slurp_stream buffers arbitrary istreams — the stdin fallback the CLI
// rides on.  The decode layers only ever see a span, so these tests pin
// the span's contents, not decoder behavior.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mrt/buffer.hpp"
#include "mrt/source.hpp"
#include "support/temp_path.hpp"

namespace bgpintent::mrt {
namespace {

std::vector<std::uint8_t> sample_bytes() {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 1000; ++i)
    bytes.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  return bytes;
}

/// Writes `bytes` to a fresh file under the test temp dir and returns its
/// path.
std::string write_temp_file(const std::string& name,
                            const std::vector<std::uint8_t>& bytes) {
  const std::string path = test_support::unique_temp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
  return path;
}

std::vector<std::uint8_t> to_vector(std::span<const std::uint8_t> data) {
  return {data.begin(), data.end()};
}

TEST(BufferSourceTest, ExposesOwnedBytes) {
  const auto bytes = sample_bytes();
  const BufferSource source{std::vector<std::uint8_t>(bytes)};
  EXPECT_EQ(to_vector(source.data()), bytes);
  EXPECT_FALSE(source.zero_copy());
}

TEST(BufferSourceTest, EmptyBufferIsEmptySpan) {
  const BufferSource source{{}};
  EXPECT_TRUE(source.data().empty());
}

TEST(MmapSourceTest, MapsRegularFile) {
  const auto bytes = sample_bytes();
  const std::string path = write_temp_file("mmap_regular.bin", bytes);
  const MmapSource source(path);
  EXPECT_EQ(to_vector(source.data()), bytes);
  EXPECT_TRUE(source.zero_copy());
  std::remove(path.c_str());
}

TEST(MmapSourceTest, EmptyFileMapsToEmptySpan) {
  const std::string path = write_temp_file("mmap_empty.bin", {});
  const MmapSource source(path);
  EXPECT_TRUE(source.data().empty());
  std::remove(path.c_str());
}

TEST(MmapSourceTest, MissingFileThrows) {
  EXPECT_THROW(MmapSource(test_support::unique_temp_path("does_not_exist.bin")),
               MrtError);
}

TEST(OpenSourceTest, RegularFileIsZeroCopy) {
  const auto bytes = sample_bytes();
  const std::string path = write_temp_file("open_regular.bin", bytes);
  const auto source = open_source(path);
  ASSERT_NE(source, nullptr);
  EXPECT_TRUE(source->zero_copy());
  EXPECT_EQ(to_vector(source->data()), bytes);
  std::remove(path.c_str());
}

TEST(OpenSourceTest, MmapDisabledFallsBackToBuffer) {
  const auto bytes = sample_bytes();
  const std::string path = write_temp_file("open_no_mmap.bin", bytes);
  const auto source = open_source(path, /*allow_mmap=*/false);
  ASSERT_NE(source, nullptr);
  EXPECT_FALSE(source->zero_copy());
  EXPECT_EQ(to_vector(source->data()), bytes);
  std::remove(path.c_str());
}

TEST(OpenSourceTest, MissingFileThrows) {
  EXPECT_THROW((void)open_source(test_support::unique_temp_path("missing.bin")),
               MrtError);
}

TEST(SlurpStreamTest, BuffersWholeStream) {
  const auto bytes = sample_bytes();
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  EXPECT_EQ(slurp_stream(in), bytes);
}

TEST(SlurpStreamTest, EmptyStreamIsEmpty) {
  std::istringstream in;
  EXPECT_TRUE(slurp_stream(in).empty());
}

TEST(SlurpStreamTest, LargeStreamCrossesChunkBoundaries) {
  // Larger than any plausible internal chunk size, with content that
  // would expose an off-by-one at a chunk seam.
  std::string text;
  for (int i = 0; i < 300000; ++i) text.push_back(static_cast<char>(i % 251));
  std::istringstream in(text);
  const auto slurped = slurp_stream(in);
  ASSERT_EQ(slurped.size(), text.size());
  EXPECT_EQ(std::memcmp(slurped.data(), text.data(), text.size()), 0);
}

}  // namespace
}  // namespace bgpintent::mrt
