#include "stream/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "stream/wire.hpp"
#include "util/checksum.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace bgpintent::stream {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointMagic[8] = {'B', 'G', 'P', 'I', 'J', 'C', 'K', 'P'};
constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".ckpt";

void put_window_state(std::vector<std::uint8_t>& out,
                      const WindowState& state) {
  wire::put<std::uint64_t>(out, state.paths.size());
  for (const bgp::AsPath& path : state.paths) wire::put_aspath(out, path);

  wire::put<std::uint64_t>(out, state.ring.size());
  for (const WindowState::EpochState& epoch : state.ring) {
    wire::put<std::uint64_t>(out, epoch.id);
    wire::put<std::uint64_t>(out, epoch.tuples.size());
    for (const auto& [key, count] : epoch.tuples) {
      wire::put<std::uint64_t>(out, key);
      wire::put<std::uint32_t>(out, count);
    }
  }

  wire::put<std::uint64_t>(out, state.alphas.size());
  for (const WindowState::AlphaLabels& alpha : state.alphas) {
    wire::put<std::uint16_t>(out, alpha.alpha);
    wire::put<std::uint64_t>(out, alpha.labels.size());
    for (const auto& [beta, intent] : alpha.labels) {
      wire::put<std::uint16_t>(out, beta);
      wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(intent));
    }
  }

  wire::put<std::uint64_t>(out, state.dirty.size());
  for (const std::uint16_t alpha : state.dirty)
    wire::put<std::uint16_t>(out, alpha);

  wire::put<std::uint8_t>(out, state.started ? 1 : 0);
  wire::put<std::uint64_t>(out, state.current_epoch);
  wire::put<std::uint32_t>(out, state.latest_timestamp);
  wire::put<std::uint64_t>(out, state.announces);
  wire::put<std::uint64_t>(out, state.withdraws);
  wire::put<std::uint64_t>(out, state.expired_epochs);
  wire::put<std::uint64_t>(out, state.reclassified_communities);
}

[[nodiscard]] WindowState get_window_state(wire::Cursor& cursor) {
  WindowState state;
  const std::size_t paths = cursor.get_count(/*u32 count prefix*/ 4);
  state.paths.reserve(paths);
  for (std::size_t i = 0; i < paths; ++i)
    state.paths.push_back(wire::get_aspath(cursor));

  const std::size_t ring = cursor.get_count(8 + 8);
  state.ring.reserve(ring);
  for (std::size_t i = 0; i < ring; ++i) {
    WindowState::EpochState epoch;
    epoch.id = cursor.get<std::uint64_t>();
    const std::size_t tuples = cursor.get_count(8 + 4);
    epoch.tuples.reserve(tuples);
    for (std::size_t t = 0; t < tuples; ++t) {
      const std::uint64_t key = cursor.get<std::uint64_t>();
      const std::uint32_t count = cursor.get<std::uint32_t>();
      epoch.tuples.emplace_back(key, count);
    }
    state.ring.push_back(std::move(epoch));
  }

  const std::size_t alphas = cursor.get_count(2 + 8);
  state.alphas.reserve(alphas);
  for (std::size_t i = 0; i < alphas; ++i) {
    WindowState::AlphaLabels alpha;
    alpha.alpha = cursor.get<std::uint16_t>();
    const std::size_t labels = cursor.get_count(2 + 1);
    alpha.labels.reserve(labels);
    for (std::size_t l = 0; l < labels; ++l) {
      const std::uint16_t beta = cursor.get<std::uint16_t>();
      alpha.labels.emplace_back(beta, wire::get_intent(cursor));
    }
    state.alphas.push_back(std::move(alpha));
  }

  const std::size_t dirty = cursor.get_count(2);
  state.dirty.reserve(dirty);
  for (std::size_t i = 0; i < dirty; ++i)
    state.dirty.push_back(cursor.get<std::uint16_t>());

  state.started = cursor.get<std::uint8_t>() != 0;
  state.current_epoch = cursor.get<std::uint64_t>();
  state.latest_timestamp = cursor.get<std::uint32_t>();
  state.announces = cursor.get<std::uint64_t>();
  state.withdraws = cursor.get<std::uint64_t>();
  state.expired_epochs = cursor.get<std::uint64_t>();
  state.reclassified_communities = cursor.get<std::uint64_t>();
  return state;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint_payload(
    const CheckpointData& data) {
  std::vector<std::uint8_t> out;
  wire::put_window_config(out, data.config);
  put_window_state(out, data.state.window);

  wire::put<std::uint64_t>(out, data.state.events.size());
  for (const Event& event : data.state.events) {
    wire::put<std::uint64_t>(out, event.seq);
    wire::put<std::uint32_t>(out, event.change.community.wire());
    wire::put<std::uint8_t>(out,
                            static_cast<std::uint8_t>(event.change.previous));
    wire::put<std::uint8_t>(out,
                            static_cast<std::uint8_t>(event.change.current));
    wire::put<std::uint64_t>(out, event.change.epoch);
  }
  wire::put<std::uint64_t>(out, data.state.next_seq);
  wire::put<std::uint64_t>(out, data.state.decode_ok);
  wire::put<std::uint64_t>(out, data.state.decode_errors);
  wire::put<std::uint64_t>(out, data.state.updates_since_reclassify);
  return out;
}

CheckpointData decode_checkpoint_payload(
    std::span<const std::uint8_t> payload) {
  wire::Cursor cursor(payload, "journal");
  CheckpointData data;
  data.config = wire::get_window_config(cursor);
  data.state.window = get_window_state(cursor);

  const std::size_t events = cursor.get_count(8 + 4 + 1 + 1 + 8);
  data.state.events.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    Event event;
    event.seq = cursor.get<std::uint64_t>();
    event.change.community = Community::from_wire(cursor.get<std::uint32_t>());
    event.change.previous = wire::get_intent(cursor);
    event.change.current = wire::get_intent(cursor);
    event.change.epoch = cursor.get<std::uint64_t>();
    data.state.events.push_back(event);
  }
  data.state.next_seq = cursor.get<std::uint64_t>();
  data.state.decode_ok = cursor.get<std::uint64_t>();
  data.state.decode_errors = cursor.get<std::uint64_t>();
  data.state.updates_since_reclassify = cursor.get<std::uint64_t>();
  cursor.expect_end("checkpoint payload");
  return data;
}

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
                     const CheckpointData& data) {
  const std::vector<std::uint8_t> payload = encode_checkpoint_payload(data);

  std::vector<std::uint8_t> bytes;
  bytes.reserve(kCheckpointHeaderBytes + payload.size());
  for (const char c : kCheckpointMagic)
    bytes.push_back(static_cast<std::uint8_t>(c));
  wire::put<std::uint32_t>(bytes, kCheckpointVersion);
  wire::put<std::uint64_t>(bytes, util::xxh64(payload));
  wire::put<std::uint64_t>(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  // A durable rename keeps the --checkpoint-interval bounded-replay
  // guarantee across power loss: an undone link would lose the checkpoint.
  util::write_file_durably<JournalError>(checkpoint_path(directory, records),
                                         bytes);
}

CheckpointData load_checkpoint(const std::string& path) {
  const std::vector<std::uint8_t> bytes = util::read_file<JournalError>(path);
  if (bytes.size() < kCheckpointHeaderBytes)
    throw JournalError(
        util::format("%s: checkpoint header truncated", path.c_str()));
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) !=
      0)
    throw JournalError(
        util::format("%s: not a checkpoint (bad magic)", path.c_str()));
  const std::span<const std::uint8_t> all(bytes);
  wire::Cursor header(
      all.subspan(sizeof kCheckpointMagic,
                  kCheckpointHeaderBytes - sizeof kCheckpointMagic),
      "journal");
  const std::uint32_t version = header.get<std::uint32_t>();
  if (version != kCheckpointVersion)
    throw JournalError(util::format(
        "%s: checkpoint version %u is not the supported version %u",
        path.c_str(), version, kCheckpointVersion));
  const std::uint64_t checksum = header.get<std::uint64_t>();
  const std::uint64_t size = header.get<std::uint64_t>();
  if (size != bytes.size() - kCheckpointHeaderBytes)
    throw JournalError(util::format(
        "%s: checkpoint payload size mismatch (header %llu, file %llu)",
        path.c_str(), static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(bytes.size() -
                                        kCheckpointHeaderBytes)));
  const auto payload = all.subspan(kCheckpointHeaderBytes);
  if (util::xxh64(payload) != checksum)
    throw JournalError(
        util::format("%s: checkpoint checksum mismatch", path.c_str()));
  return decode_checkpoint_payload(payload);
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
