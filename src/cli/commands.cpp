#include "cli/commands.hpp"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "cli/args.hpp"
#include "core/incremental.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "core/summarize.hpp"
#include "dict/builtin.hpp"
#include "mrt/fault.hpp"
#include "mrt/mrt_file.hpp"
#include "rel/asrank.hpp"
#include "routing/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "stream/engine.hpp"
#include "stream/recovery.hpp"
#include "stream/synth.hpp"
#include "util/csv.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::cli {

namespace {

/// Parses the shared decode flags (--tolerant, --max-errors,
/// --max-error-frac); false means a usage error was already printed.
bool parse_decode_options(const Args& args, mrt::DecodeOptions& options) {
  if (args.flag("tolerant")) options.mode = mrt::DecodeMode::kTolerant;
  const auto max_errors = args.value_u64("max-errors", options.max_errors);
  const auto max_frac =
      args.value_double("max-error-frac", options.max_error_frac);
  if (!max_errors || !max_frac) return false;
  if (*max_frac < 0.0 || *max_frac > 1.0) {
    std::fprintf(stderr, "error: --max-error-frac must be in [0, 1]\n");
    return false;
  }
  if ((args.value("max-errors") || args.value("max-error-frac")) &&
      !options.tolerant()) {
    std::fprintf(stderr,
                 "error: --max-errors/--max-error-frac require --tolerant\n");
    return false;
  }
  options.max_errors = *max_errors;
  options.max_error_frac = *max_frac;
  return true;
}

/// How MRT inputs are opened: try mmap then fall back (the default), demand
/// mmap, or always read into memory.  `-` (stdin) is never mappable.
enum class MmapMode { kAuto, kForce, kOff };

/// Parses the shared --mmap/--no-mmap pair; nullopt means a usage error
/// was already printed.
std::optional<MmapMode> parse_mmap_mode(const Args& args) {
  const bool force = args.flag("mmap");
  const bool off = args.flag("no-mmap");
  if (force && off) {
    std::fprintf(stderr,
                 "error: --mmap and --no-mmap are mutually exclusive\n");
    return std::nullopt;
  }
  if (force) return MmapMode::kForce;
  if (off) return MmapMode::kOff;
  return MmapMode::kAuto;
}

/// One opened MRT input: the display name plus the byte source feeding the
/// streaming decode (mmap-backed when eligible).
struct MrtSource {
  std::string name;
  std::unique_ptr<mrt::ByteSource> source;
};

/// Opens every input operand as a ByteSource.  Regular files mmap under
/// kAuto/kForce; `-` reads stdin; anything unmappable falls back to a
/// buffered read with a stderr note (kAuto) or fails (kForce).  On failure
/// prints the error and returns nullopt with `exit_code` set.
std::optional<std::vector<MrtSource>> open_mrt_sources(
    const std::vector<std::string>& paths, MmapMode mode, int& exit_code) {
  if (paths.empty()) {
    std::fprintf(stderr, "error: at least one MRT file required\n");
    exit_code = kExitUsage;
    return std::nullopt;
  }
  std::vector<MrtSource> sources;
  sources.reserve(paths.size());
  for (const std::string& path : paths) {
    if (path == "-") {
      // Buffered stdin is the expected default; only an explicit --mmap
      // warrants telling the user it cannot be honored.
      if (mode == MmapMode::kForce)
        std::fprintf(stderr,
                     "note: <stdin>: mmap unavailable, falling back to "
                     "buffered read\n");
      try {
        sources.push_back({"<stdin>", std::make_unique<mrt::BufferSource>(
                                          mrt::slurp_stream(std::cin))});
      } catch (const mrt::MrtError& error) {
        std::fprintf(stderr, "error: <stdin>: %s\n", error.what());
        exit_code = kExitData;
        return std::nullopt;
      }
      continue;
    }
    if (mode != MmapMode::kOff) {
      try {
        sources.push_back({path, std::make_unique<mrt::MmapSource>(path)});
        continue;
      } catch (const mrt::MrtError& error) {
        if (mode == MmapMode::kForce) {
          std::fprintf(stderr, "error: %s\n", error.what());
          exit_code = kExitData;
          return std::nullopt;
        }
        // kAuto: fall through to the buffered read below, which reports
        // its own failure if the path is flatly unreadable.
      }
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      exit_code = kExitData;
      return std::nullopt;
    }
    if (mode == MmapMode::kAuto)
      std::fprintf(stderr,
                   "note: %s: mmap unavailable, falling back to buffered "
                   "read\n",
                   path.c_str());
    try {
      sources.push_back({path, std::make_unique<mrt::BufferSource>(
                                   mrt::slurp_stream(in))});
    } catch (const mrt::MrtError& error) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.what());
      exit_code = kExitData;
      return std::nullopt;
    }
  }
  return sources;
}

/// Streams every opened source into `ingest` (chunk-parallel when `pool`
/// is non-null; identical output either way), printing the per-file error
/// lines and the end-of-run decode summary exactly as the materializing
/// loader did.  False means the error was printed and `exit_code` set.
bool ingest_sources(const std::vector<MrtSource>& sources,
                    core::MrtIngest& ingest, util::ThreadPool* pool,
                    int& exit_code) {
  for (const MrtSource& src : sources) {
    try {
      if (pool != nullptr)
        ingest.add_parallel(*src.source, *pool);
      else
        ingest.add(*src.source);
    } catch (const mrt::DecodeBudgetError& error) {
      std::fprintf(stderr, "error: %s: %s\n", src.name.c_str(), error.what());
      std::fprintf(stderr, "decode: %s\n",
                   ingest.report().summary().c_str());
      exit_code = kExitBudget;
      return false;
    } catch (const mrt::MrtError& error) {
      std::fprintf(stderr, "error: %s: %s\n", src.name.c_str(), error.what());
      exit_code = kExitData;
      return false;
    }
  }
  std::fprintf(stderr, "decode: %s\n", ingest.report().summary().c_str());
  return true;
}

std::optional<dict::DictionaryStore> load_dictionary(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open dictionary %s\n", path.c_str());
    return std::nullopt;
  }
  dict::DictionaryStore store;
  try {
    store.load(in);
  } catch (const util::ParseError& error) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.what());
    return std::nullopt;
  }
  return store;
}

// Inclusive upper bounds for numeric flags that end up in narrower types;
// Args::value_u64 rejects anything above them instead of letting a cast
// wrap (e.g. --threads 4294967297 silently becoming 1 worker).
constexpr std::uint64_t kMaxThreads = 4096;
constexpr std::uint64_t kMaxU32 = 0xffffffffULL;
constexpr std::uint64_t kMaxPort = 65535;

bool write_to(const std::optional<std::string>& path, auto&& writer) {
  if (!path) {
    writer(std::cout);
    return true;
  }
  std::ofstream out(*path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path->c_str());
    return false;
  }
  writer(out);
  return true;
}

}  // namespace

int cmd_infer(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2,
                                {"gap", "threshold", "out", "summary",
                                 "threads", "max-errors", "max-error-frac"},
                                {"no-siblings", "mean-ratios", "tolerant",
                                 "mmap", "no-mmap"});
  if (!args) return kExitUsage;
  const auto gap = args->value_u64("gap", 140, kMaxU32);
  const auto threshold = args->value_double("threshold", 160.0);
  const auto threads = args->value_u64("threads", 0, kMaxThreads);
  if (!gap || !threshold || !threads) return kExitUsage;
  mrt::DecodeOptions decode;
  if (!parse_decode_options(*args, decode)) return kExitUsage;
  const auto mmap_mode = parse_mmap_mode(*args);
  if (!mmap_mode) return kExitUsage;

  int exit_code = kExitRuntime;
  const auto sources =
      open_mrt_sources(args->positional(), *mmap_mode, exit_code);
  if (!sources) return exit_code;

  core::PipelineConfig cfg;
  cfg.classifier.min_gap = static_cast<std::uint32_t>(*gap);
  cfg.classifier.ratio_threshold = *threshold;
  cfg.classifier.mean_of_ratios = args->flag("mean-ratios");
  cfg.observation.sibling_aware = !args->flag("no-siblings");
  cfg.threads = static_cast<unsigned>(*threads);
  cfg.decode = decode;

  // Decoded rows stream straight into the interned core; no RibEntry
  // vector is ever materialized (docs/PERFORMANCE.md).
  core::MrtIngest ingest(decode);
  {
    std::optional<util::ThreadPool> pool;
    if (util::ThreadPool::resolve(cfg.threads) > 1) pool.emplace(cfg.threads);
    if (!ingest_sources(*sources, ingest, pool ? &*pool : nullptr, exit_code))
      return exit_code;
  }
  core::Pipeline pipeline(cfg);
  const auto result = pipeline.run(ingest);

  std::fprintf(stderr,
               "%zu entries, %zu unique paths, %zu communities -> "
               "%zu information / %zu action / %zu excluded\n",
               result.entries_ingested,
               result.observations.unique_path_count(),
               result.observations.community_count(),
               result.inference.information_count,
               result.inference.action_count,
               result.inference.excluded_private +
                   result.inference.excluded_never_on_path);

  const bool wrote = write_to(args->value("out"), [&](std::ostream& out) {
    util::CsvWriter csv(out);
    csv.write_row({"community", "intent", "on_path_paths", "off_path_paths"});
    for (const auto& stats : result.observations.all())
      csv.write_row({stats.community.to_string(),
                     std::string(dict::to_string(
                         result.inference.label_of(stats.community))),
                     std::to_string(stats.on_path_paths),
                     std::to_string(stats.off_path_paths)});
  });
  if (!wrote) return 1;

  if (const auto summary_path = args->value("summary")) {
    const auto summary =
        core::summarize(result.observations, result.inference);
    if (!write_to(summary_path, [&](std::ostream& out) {
          core::write_summary(out, summary);
        }))
      return 1;
    std::fprintf(stderr, "summary: %zu inferred dictionary entries -> %s\n",
                 summary.size(), summary_path->c_str());
  }
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  const auto args = Args::parse(
      argc, argv, 2,
      {"seed", "tier1", "tier2", "stubs", "vantage-points", "out", "dict"},
      {});
  if (!args) return 2;
  const auto seed = args->value_u64("seed", 20230501);
  const auto tier1 = args->value_u64("tier1", 10, kMaxU32);
  const auto tier2 = args->value_u64("tier2", 80, kMaxU32);
  const auto stubs = args->value_u64("stubs", 600, kMaxU32);
  const auto vps = args->value_u64("vantage-points", 60, kMaxU32);
  if (!seed || !tier1 || !tier2 || !stubs || !vps) return 2;

  routing::ScenarioConfig cfg;
  cfg.topology.seed = *seed;
  cfg.policy.seed = *seed + 1;
  cfg.workload_seed = *seed + 2;
  cfg.topology.tier1_count = static_cast<std::uint32_t>(*tier1);
  cfg.topology.tier2_count = static_cast<std::uint32_t>(*tier2);
  cfg.topology.stub_count = static_cast<std::uint32_t>(*stubs);
  cfg.vantage_point_count = static_cast<std::uint32_t>(*vps);
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  const std::string out_path = args->value("out").value_or("rib.mrt");
  {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    mrt::MrtWriter writer(out);
    writer.write_rib_snapshot(entries, 0x7f000001, 1682899200);
  }
  std::fprintf(stderr, "wrote %zu RIB entries (%zu ASes, %zu VPs) to %s\n",
               entries.size(), scenario.topology().graph.as_count(),
               scenario.vantage_points().size(), out_path.c_str());

  if (const auto dict_path = args->value("dict")) {
    std::ofstream out(*dict_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", dict_path->c_str());
      return 1;
    }
    scenario.ground_truth().save(out);
    std::fprintf(stderr, "wrote ground-truth dictionary (%zu entries) to %s\n",
                 scenario.ground_truth().entry_count(), dict_path->c_str());
  }
  return 0;
}

int cmd_relationships(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2,
                                {"out", "max-errors", "max-error-frac"},
                                {"tolerant", "mmap", "no-mmap"});
  if (!args) return kExitUsage;
  mrt::DecodeOptions decode;
  if (!parse_decode_options(*args, decode)) return kExitUsage;
  const auto mmap_mode = parse_mmap_mode(*args);
  if (!mmap_mode) return kExitUsage;
  int exit_code = kExitRuntime;
  const auto sources =
      open_mrt_sources(args->positional(), *mmap_mode, exit_code);
  if (!sources) return exit_code;

  // Relationship inference wants one AsPath per decoded row; the sink
  // steals it off the scratch, skipping the rest of the entry.
  class PathSink final : public mrt::EntrySink {
   public:
    explicit PathSink(std::vector<bgp::AsPath>& paths) noexcept
        : paths_(&paths) {}
    void on_entry(bgp::RibEntry& entry) override {
      paths_->push_back(std::move(entry.route.path));
    }

   private:
    std::vector<bgp::AsPath>* paths_;
  };
  std::vector<bgp::AsPath> paths;
  PathSink sink(paths);
  mrt::DecodeReport merged;
  for (const MrtSource& src : *sources) {
    mrt::DecodeReport file_report;
    try {
      mrt::decode_rib_stream(*src.source, sink, decode, &file_report);
      merged.merge(file_report);
    } catch (const mrt::DecodeBudgetError& error) {
      merged.merge(file_report);
      std::fprintf(stderr, "error: %s: %s\n", src.name.c_str(), error.what());
      std::fprintf(stderr, "decode: %s\n", merged.summary().c_str());
      return kExitBudget;
    } catch (const mrt::MrtError& error) {
      merged.merge(file_report);
      std::fprintf(stderr, "error: %s: %s\n", src.name.c_str(), error.what());
      return kExitData;
    }
  }
  std::fprintf(stderr, "decode: %s\n", merged.summary().c_str());
  const auto dataset = rel::infer_relationships(paths);
  std::fprintf(stderr, "inferred %zu links: %zu p2c, %zu p2p\n",
               dataset.link_count(), dataset.p2c_count(), dataset.p2p_count());
  if (!write_to(args->value("out"),
                [&](std::ostream& out) { dataset.save(out); }))
    return 1;
  return 0;
}

int cmd_eval(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2,
                                {"dict", "gap", "threshold", "threads",
                                 "max-errors", "max-error-frac"},
                                {"tolerant", "mmap", "no-mmap"});
  if (!args) return kExitUsage;
  const auto dict_path = args->value("dict");
  if (!dict_path) {
    std::fprintf(stderr, "error: --dict <truth.dict> is required\n");
    return kExitUsage;
  }
  const auto truth = load_dictionary(*dict_path);
  if (!truth) return kExitData;
  const auto gap = args->value_u64("gap", 140, kMaxU32);
  const auto threshold = args->value_double("threshold", 160.0);
  const auto threads = args->value_u64("threads", 0, kMaxThreads);
  if (!gap || !threshold || !threads) return kExitUsage;
  mrt::DecodeOptions decode;
  if (!parse_decode_options(*args, decode)) return kExitUsage;
  const auto mmap_mode = parse_mmap_mode(*args);
  if (!mmap_mode) return kExitUsage;
  int exit_code = kExitRuntime;
  const auto sources =
      open_mrt_sources(args->positional(), *mmap_mode, exit_code);
  if (!sources) return exit_code;

  core::PipelineConfig cfg;
  cfg.classifier.min_gap = static_cast<std::uint32_t>(*gap);
  cfg.classifier.ratio_threshold = *threshold;
  cfg.threads = static_cast<unsigned>(*threads);
  cfg.decode = decode;
  core::MrtIngest ingest(decode);
  {
    std::optional<util::ThreadPool> pool;
    if (util::ThreadPool::resolve(cfg.threads) > 1) pool.emplace(cfg.threads);
    if (!ingest_sources(*sources, ingest, pool ? &*pool : nullptr, exit_code))
      return exit_code;
  }
  core::Pipeline pipeline(cfg);
  const auto result = pipeline.run(ingest);
  const auto eval = result.score(*truth);

  util::TextTable table({"metric", "value"});
  table.add_row({"labeled observed", std::to_string(eval.labeled_observed)});
  table.add_row({"classified", std::to_string(eval.classified)});
  table.add_row({"correct", std::to_string(eval.correct)});
  table.add_row({"accuracy", util::percent(eval.accuracy())});
  table.add_row({"coverage", util::percent(eval.coverage())});
  table.add_row({"info as action", std::to_string(eval.info_as_action)});
  table.add_row({"action as info", std::to_string(eval.action_as_info)});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_annotate(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2, {"dict"}, {});
  if (!args) return 2;
  dict::DictionaryStore store;
  if (const auto dict_path = args->value("dict")) {
    auto loaded = load_dictionary(*dict_path);
    if (!loaded) return kExitData;
    store = std::move(*loaded);
  } else {
    store = dict::builtin_dictionary();
  }
  if (args->positional().empty()) {
    std::fprintf(stderr, "error: pass community values like 1299:2569\n");
    return 2;
  }
  for (const std::string& raw : args->positional()) {
    const auto community = bgp::Community::parse(raw);
    if (!community) {
      std::fprintf(stderr, "error: '%s' is not alpha:beta\n", raw.c_str());
      return 2;
    }
    const dict::DictEntry* entry = store.lookup(*community);
    if (entry == nullptr)
      std::printf("%-12s  unknown\n", community->to_string().c_str());
    else
      std::printf("%-12s  %-11s  %-20s  %s\n",
                  community->to_string().c_str(),
                  std::string(dict::to_string(entry->intent())).c_str(),
                  std::string(dict::to_string(entry->category)).c_str(),
                  entry->description.c_str());
  }
  return 0;
}

int cmd_mrt_info(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2, {}, {});
  if (!args) return 2;
  if (args->positional().empty()) {
    std::fprintf(stderr, "error: at least one MRT file required\n");
    return 2;
  }
  for (const std::string& path : args->positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      return kExitData;
    }
    std::size_t records = 0;
    std::size_t rib_rows = 0;
    std::size_t updates = 0;
    std::size_t bytes = 0;
    try {
      mrt::MrtReader reader(in);
      mrt::MrtRecord record;
      while (reader.next(record)) {
        ++records;
        bytes += 12 + record.body.size();
        if (record.type == mrt::kTypeTableDumpV2 &&
            record.subtype == mrt::kSubtypeRibIpv4Unicast)
          ++rib_rows;
        else if (record.type == mrt::kTypeBgp4mp)
          ++updates;
      }
    } catch (const mrt::MrtError& error) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.what());
      return kExitData;
    }
    std::printf("%s: %zu records (%zu RIB prefixes, %zu BGP4MP), %zu bytes\n",
                path.c_str(), records, rib_rows, updates, bytes);
  }
  return 0;
}

int cmd_mrt_corrupt(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2, {"out", "kind", "seed"}, {});
  if (!args) return kExitUsage;
  if (args->positional().size() != 1) {
    std::fprintf(stderr,
                 "error: usage: mrt-corrupt <in.mrt> --out <out.mrt> "
                 "[--kind bitflip|truncate|splice|lengthlie] [--seed N]\n");
    return kExitUsage;
  }
  const auto out_path = args->value("out");
  if (!out_path) {
    std::fprintf(stderr, "error: --out <out.mrt> is required\n");
    return kExitUsage;
  }
  const std::string kind_name = args->value("kind").value_or("bitflip");
  const auto kind = mrt::parse_corruption_kind(kind_name);
  if (!kind) {
    std::fprintf(stderr,
                 "error: --kind must be bitflip, truncate, splice, or "
                 "lengthlie (got '%s')\n",
                 kind_name.c_str());
    return kExitUsage;
  }
  const auto seed = args->value_u64("seed", 1);
  if (!seed) return kExitUsage;

  const std::string& in_path = args->positional().front();
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file<std::runtime_error>(in_path);
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitData;
  }

  mrt::CorruptionResult corrupted;
  try {
    corrupted = mrt::corrupt_mrt(bytes, *kind, *seed);
  } catch (const mrt::MrtError& error) {
    std::fprintf(stderr, "error: %s: %s\n", in_path.c_str(), error.what());
    return kExitData;
  }

  std::ofstream out(*out_path, std::ios::binary | std::ios::trunc);
  if (!out ||
      !out.write(reinterpret_cast<const char*>(corrupted.bytes.data()),
                 static_cast<std::streamsize>(corrupted.bytes.size()))) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
    return kExitRuntime;
  }

  std::string touched;
  for (const std::uint64_t record : corrupted.touched_records) {
    if (!touched.empty()) touched += ',';
    touched += std::to_string(record);
  }
  std::printf("%s: %s (touched records: %s)\n", out_path->c_str(),
              corrupted.description.c_str(), touched.c_str());
  return 0;
}

namespace {

/// Default TCP port of the query daemon (also baked into cmd_query).
constexpr std::uint64_t kDefaultServePort = 7179;

// Signal plumbing for `bgpintent serve`: the handlers may only touch the
// running server through the async-signal-safe request_stop().
serve::Server* g_serve_server = nullptr;

void serve_signal_handler(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

}  // namespace

int cmd_serve(int argc, char** argv) {
  const auto args = Args::parse(
      argc, argv, 2,
      {"listen", "port", "shards", "snapshot", "snapshot-interval",
       "read-timeout", "gap", "threshold", "max-errors", "max-error-frac"},
      {"no-siblings", "mean-ratios", "tolerant", "mmap", "no-mmap",
       "snapshot-mmap"});
  if (!args) return 2;
  mrt::DecodeOptions decode;
  if (!parse_decode_options(*args, decode)) return kExitUsage;
  const auto port = args->value_u64("port", kDefaultServePort, kMaxPort);
  const auto shards = args->value_u64("shards", 0, kMaxThreads);
  const auto interval = args->value_u64("snapshot-interval", 0, 31536000);
  const auto read_timeout =
      args->value_u64("read-timeout", 30000, 86400000);
  const auto gap = args->value_u64("gap", 140, kMaxU32);
  const auto threshold = args->value_double("threshold", 160.0);
  if (!port || !shards || !interval || !read_timeout || !gap || !threshold)
    return 2;
  const auto snapshot_path = args->value("snapshot");
  if (*interval > 0 && !snapshot_path) {
    std::fprintf(stderr,
                 "error: --snapshot-interval requires --snapshot <file>\n");
    return 2;
  }
  const bool snapshot_mmap = args->flag("snapshot-mmap");
  if (snapshot_mmap && !snapshot_path) {
    std::fprintf(stderr, "error: --snapshot-mmap requires --snapshot <file>\n");
    return 2;
  }

  core::ClassifierConfig classifier_cfg;
  classifier_cfg.min_gap = static_cast<std::uint32_t>(*gap);
  classifier_cfg.ratio_threshold = *threshold;
  classifier_cfg.mean_of_ratios = args->flag("mean-ratios");
  core::ObservationConfig observation_cfg;
  observation_cfg.sibling_aware = !args->flag("no-siblings");
  core::IncrementalClassifier classifier(classifier_cfg, observation_cfg);

  // An existing snapshot wins over the classifier flags: it carries the
  // configs it was built with, and mixing configs would corrupt labels.
  if (snapshot_path) {
    if (std::ifstream probe(*snapshot_path, std::ios::binary); probe) {
      try {
        if (snapshot_mmap) {
          // Near-instant restart: borrow the mapped columns instead of
          // decoding them into heap state.  The first INGEST detaches.
          const auto mapped = serve::MappedSnapshot::open(*snapshot_path);
          classifier = core::IncrementalClassifier(
              mapped->classifier_config(), mapped->observation_config());
          classifier.restore_view(mapped->state_view());
        } else {
          classifier = serve::load_snapshot(*snapshot_path);
        }
      } catch (const serve::SnapshotError& error) {
        std::fprintf(stderr, "error: %s: %s\n", snapshot_path->c_str(),
                     error.what());
        return 1;
      }
      std::fprintf(stderr, "restored %zu ingested entries from %s%s\n",
                   classifier.entries_ingested(), snapshot_path->c_str(),
                   snapshot_mmap ? " (mapped)" : "");
    }
  }

  if (!args->positional().empty()) {
    const auto mmap_mode = parse_mmap_mode(*args);
    if (!mmap_mode) return kExitUsage;
    int exit_code = kExitRuntime;
    const auto sources =
        open_mrt_sources(args->positional(), *mmap_mode, exit_code);
    if (!sources) return exit_code;
    // Each source streams row-by-row into the classifier (ingest_mrt);
    // decode counters fold in per file, exactly like the old batch path.
    const std::size_t before = classifier.entries_ingested();
    mrt::DecodeReport merged;
    for (const MrtSource& src : *sources) {
      mrt::DecodeReport file_report;
      try {
        classifier.ingest_mrt(*src.source, decode, &file_report);
        merged.merge(file_report);
      } catch (const mrt::DecodeBudgetError& error) {
        merged.merge(file_report);
        std::fprintf(stderr, "error: %s: %s\n", src.name.c_str(),
                     error.what());
        std::fprintf(stderr, "decode: %s\n", merged.summary().c_str());
        return kExitBudget;
      } catch (const mrt::MrtError& error) {
        merged.merge(file_report);
        std::fprintf(stderr, "error: %s: %s\n", src.name.c_str(),
                     error.what());
        return kExitData;
      }
    }
    std::fprintf(stderr, "decode: %s\n", merged.summary().c_str());
    std::fprintf(stderr, "primed with %zu RIB entries from %zu MRT files\n",
                 classifier.entries_ingested() - before,
                 args->positional().size());
  }

  serve::ServerConfig cfg;
  cfg.listen_address = args->value("listen").value_or("127.0.0.1");
  cfg.port = static_cast<std::uint16_t>(*port);
  cfg.shards = static_cast<unsigned>(*shards);
  cfg.read_timeout_ms = static_cast<int>(*read_timeout);
  cfg.snapshot_interval_s = static_cast<unsigned>(*interval);
  if (snapshot_path) cfg.snapshot_path = *snapshot_path;

  serve::Server server(std::move(classifier), cfg);
  try {
    server.start();
  } catch (const serve::ServeError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  g_serve_server = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  // Machine-readable readiness line on stdout: scripts started us with
  // --port 0 and need the resolved port before their first connect.
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr, "serving on %s:%u (ctrl-c to drain and exit)\n",
               cfg.listen_address.c_str(), server.port());
  server.wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server = nullptr;

  const auto stats = server.stats();
  std::fprintf(stderr,
               "drained after %.1fs: %llu connections, %llu label queries, "
               "%llu entries ingested\n",
               stats.uptime_seconds,
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.queries_served),
               static_cast<unsigned long long>(stats.entries_ingested));
  return 0;
}

int cmd_query(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2, {"host", "port"}, {});
  if (!args) return 2;
  const auto port = args->value_u64("port", kDefaultServePort, kMaxPort);
  if (!port) return 2;
  const std::string host = args->value("host").value_or("127.0.0.1");
  if (args->positional().empty()) {
    std::fprintf(stderr,
                 "error: pass a protocol command, e.g. LABEL 1299:2569\n");
    return 2;
  }
  std::string line;
  for (const std::string& token : args->positional()) {
    if (!line.empty()) line += ' ';
    line += token;
  }
  try {
    // Retrying absorbs the daemon's startup window and brief restarts
    // (transient ECONNREFUSED/ETIMEDOUT, serve/client.hpp RetryPolicy).
    auto client = serve::Client::connect_with_retry(
        host, static_cast<std::uint16_t>(*port));
    const std::string response = client.request(line);
    std::printf("%s\n", response.c_str());
    client.quit();
    return util::starts_with(response, "ERR") ? 1 : 0;
  } catch (const serve::ServeError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

int cmd_stream(int argc, char** argv) {
  const auto args = Args::parse(
      argc, argv, 2,
      {"listen", "port", "shards", "read-timeout", "epoch-seconds",
       "window-epochs", "gap", "threshold", "max-errors", "max-error-frac",
       "journal", "fsync", "checkpoint-interval", "max-segment-bytes"},
      {"serve", "no-siblings", "mean-ratios", "tolerant", "mmap", "no-mmap",
       "journal-strict"});
  if (!args) return kExitUsage;
  mrt::DecodeOptions decode;
  if (!parse_decode_options(*args, decode)) return kExitUsage;
  const auto mmap_mode = parse_mmap_mode(*args);
  if (!mmap_mode) return kExitUsage;
  const auto port = args->value_u64("port", kDefaultServePort, kMaxPort);
  const auto shards = args->value_u64("shards", 0, kMaxThreads);
  const auto read_timeout = args->value_u64("read-timeout", 30000, 86400000);
  const auto epoch_seconds = args->value_u64("epoch-seconds", 3600, kMaxU32);
  const auto window_epochs = args->value_u64("window-epochs", 168, kMaxU32);
  const auto gap = args->value_u64("gap", 140, kMaxU32);
  const auto threshold = args->value_double("threshold", 160.0);
  const auto checkpoint_interval =
      args->value_u64("checkpoint-interval", 100000);
  const auto max_segment = args->value_u64("max-segment-bytes", 4ull << 20);
  if (!port || !shards || !read_timeout || !epoch_seconds ||
      !window_epochs || !gap || !threshold || !checkpoint_interval ||
      !max_segment)
    return kExitUsage;
  if (*epoch_seconds == 0 || *window_epochs == 0) {
    std::fprintf(stderr,
                 "error: --epoch-seconds and --window-epochs must be >= 1\n");
    return kExitUsage;
  }
  const auto journal_dir = args->value("journal");
  stream::JournalConfig journal_cfg;
  if (journal_dir) {
    journal_cfg.directory = *journal_dir;
    journal_cfg.max_segment_bytes = *max_segment;
    if (journal_cfg.max_segment_bytes < stream::kSegmentHeaderBytes + 64) {
      std::fprintf(stderr, "error: --max-segment-bytes is too small\n");
      return kExitUsage;
    }
    if (const auto fsync_name = args->value("fsync")) {
      const auto policy = stream::parse_fsync_policy(*fsync_name);
      if (!policy) {
        std::fprintf(stderr,
                     "error: --fsync must be never, interval, or "
                     "every-record\n");
        return kExitUsage;
      }
      journal_cfg.fsync = *policy;
    }
  } else if (args->value("fsync") || args->flag("journal-strict") ||
             args->value("checkpoint-interval") ||
             args->value("max-segment-bytes")) {
    std::fprintf(stderr,
                 "error: --fsync/--checkpoint-interval/--max-segment-bytes/"
                 "--journal-strict require --journal\n");
    return kExitUsage;
  }

  stream::WindowConfig window_cfg;
  window_cfg.epoch_seconds = static_cast<std::uint32_t>(*epoch_seconds);
  window_cfg.window_epochs = static_cast<std::uint32_t>(*window_epochs);
  window_cfg.classifier.min_gap = static_cast<std::uint32_t>(*gap);
  window_cfg.classifier.ratio_threshold = *threshold;
  window_cfg.classifier.mean_of_ratios = args->flag("mean-ratios");
  window_cfg.observation.sibling_aware = !args->flag("no-siblings");

  // With --journal the engine comes out of crash recovery (checkpoint +
  // replay, stream/recovery.hpp) with a writer attached that resumes the
  // journal where the last process stopped; without it, a plain transient
  // engine.
  std::unique_ptr<stream::StreamEngine> recovered;
  std::optional<stream::StreamEngine> transient;
  if (journal_dir) {
    stream::RecoveryOptions recovery;
    recovery.strict = args->flag("journal-strict");
    recovery.config = window_cfg;
    recovery.checkpoint_interval_updates = *checkpoint_interval;
    stream::RecoveryReport report;
    try {
      recovered = stream::recover_stream(journal_cfg, recovery, &report);
    } catch (const stream::JournalError& error) {
      std::fprintf(stderr, "error: journal recovery failed: %s\n",
                   error.what());
      return kExitData;
    }
    if (report.fresh) {
      std::fprintf(stderr, "journal: %s is fresh\n", journal_dir->c_str());
    } else {
      std::fprintf(
          stderr,
          "journal: recovered %llu records (%llu replayed%s%s), last event "
          "seq %llu\n",
          static_cast<unsigned long long>(report.journal_records),
          static_cast<unsigned long long>(report.records_replayed),
          report.used_checkpoint ? " past checkpoint" : "",
          report.torn_tail_truncated > 0 ? ", torn tail truncated" : "",
          static_cast<unsigned long long>(report.recovered_events));
    }
    if (report.config_overridden)
      std::fprintf(stderr,
                   "journal: persisted window config wins over the flags "
                   "(docs/STREAMING.md)\n");
  } else {
    transient.emplace(window_cfg);
  }
  stream::StreamEngine& engine = recovered ? *recovered : *transient;

  const bool serving =
      args->flag("serve") || args->value("listen").has_value();
  if (!serving && args->positional().empty() && !journal_dir) {
    std::fprintf(stderr,
                 "error: pass BGP4MP update files ('-' reads stdin) and/or "
                 "--serve/--listen\n");
    return kExitUsage;
  }

  // The server starts before ingest so subscribers can watch labels change
  // while the firehose is still being consumed.
  std::optional<serve::Server> server;
  if (serving) {
    serve::ServerConfig cfg;
    cfg.listen_address = args->value("listen").value_or("127.0.0.1");
    cfg.port = static_cast<std::uint16_t>(*port);
    cfg.shards = static_cast<unsigned>(*shards);
    cfg.read_timeout_ms = static_cast<int>(*read_timeout);
    server.emplace(engine, cfg);
    try {
      server->start();
    } catch (const serve::ServeError& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return kExitRuntime;
    }
    g_serve_server = &*server;
    std::signal(SIGINT, serve_signal_handler);
    std::signal(SIGTERM, serve_signal_handler);
    std::printf("LISTENING %u\n", server->port());
    std::fflush(stdout);
    std::fprintf(stderr, "streaming on %s:%u (ctrl-c to drain and exit)\n",
                 cfg.listen_address.c_str(), server->port());
  }

  int code = kExitOk;
  mrt::DecodeReport merged;
  for (const std::string& path : args->positional()) {
    mrt::DecodeReport file_report;
    const std::string name = path == "-" ? "<stdin>" : path;
    try {
      if (path == "-") {
        // Strict stdin decode is record-at-a-time (bounded memory), so a
        // live pipe classifies as it flows instead of waiting for EOF.
        engine.ingest(std::cin, decode, &file_report);
      } else {
        std::unique_ptr<mrt::ByteSource> source;
        if (*mmap_mode != MmapMode::kOff) {
          try {
            source = std::make_unique<mrt::MmapSource>(path);
          } catch (const mrt::MrtError& error) {
            if (*mmap_mode == MmapMode::kForce) {
              std::fprintf(stderr, "error: %s\n", error.what());
              code = kExitData;
              break;
            }
          }
        }
        if (!source) {
          std::ifstream in(path, std::ios::binary);
          if (!in) {
            std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
            code = kExitData;
            break;
          }
          if (*mmap_mode == MmapMode::kAuto)
            std::fprintf(stderr,
                         "note: %s: mmap unavailable, falling back to "
                         "buffered read\n",
                         path.c_str());
          source = std::make_unique<mrt::BufferSource>(mrt::slurp_stream(in));
        }
        engine.ingest(*source, decode, &file_report);
      }
      merged.merge(file_report);
    } catch (const mrt::DecodeBudgetError& error) {
      merged.merge(file_report);
      std::fprintf(stderr, "error: %s: %s\n", name.c_str(), error.what());
      code = kExitBudget;
      break;
    } catch (const mrt::MrtError& error) {
      merged.merge(file_report);
      std::fprintf(stderr, "error: %s: %s\n", name.c_str(), error.what());
      code = kExitData;
      break;
    }
  }
  if (!args->positional().empty())
    std::fprintf(stderr, "decode: %s\n", merged.summary().c_str());
  {
    const stream::EngineStats es = engine.stats();
    std::fprintf(
        stderr,
        "window: %llu announces, %llu withdraws, %llu live tuples, "
        "%llu epochs retained (%llu expired), %llu label changes\n",
        static_cast<unsigned long long>(es.announces),
        static_cast<unsigned long long>(es.withdraws),
        static_cast<unsigned long long>(es.live_tuples),
        static_cast<unsigned long long>(es.window_epochs),
        static_cast<unsigned long long>(es.expired_epochs),
        static_cast<unsigned long long>(es.events));
  }

  if (server) {
    if (code != kExitOk) server->request_stop();
    server->wait();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_serve_server = nullptr;
    const auto stats = server->stats();
    std::fprintf(stderr,
                 "drained after %.1fs: %llu connections, %llu label queries\n",
                 stats.uptime_seconds,
                 static_cast<unsigned long long>(stats.connections_accepted),
                 static_cast<unsigned long long>(stats.queries_served));
  }
  if (engine.has_journal()) {
    // Clean shutdown: final checkpoint + sealed segment, so the next start
    // replays nothing.
    try {
      engine.detach_journal();
    } catch (const stream::JournalError& error) {
      std::fprintf(stderr, "error: journal shutdown failed: %s\n",
                   error.what());
      if (code == kExitOk) code = kExitRuntime;
    }
    const stream::EngineStats es = engine.stats();
    std::fprintf(stderr,
                 "journal: %llu records appended (%llu bytes)\n",
                 static_cast<unsigned long long>(es.journal_appends),
                 static_cast<unsigned long long>(es.journal_bytes));
  }
  return code;
}

int cmd_subscribe(int argc, char** argv) {
  const auto args = Args::parse(
      argc, argv, 2, {"host", "port", "from", "max-events", "timeout-ms"},
      {"snapshot"});
  if (!args) return kExitUsage;
  const auto port = args->value_u64("port", kDefaultServePort, kMaxPort);
  const auto from = args->value_u64("from", 0);
  const auto max_events = args->value_u64("max-events", 0);
  const auto timeout_ms = args->value_u64("timeout-ms", 0, 0x7fffffff);
  if (!port || !from || !max_events || !timeout_ms) return kExitUsage;
  const std::string host = args->value("host").value_or("127.0.0.1");

  std::string request = "SUBSCRIBE";
  if (args->flag("snapshot")) request += " snapshot";
  if (args->value("from"))
    request +=
        util::format(" from=%llu", static_cast<unsigned long long>(*from));
  const int line_timeout =
      *timeout_ms == 0 ? -1 : static_cast<int>(*timeout_ms);

  try {
    auto client = serve::Client::connect_with_retry(
        host, static_cast<std::uint16_t>(*port));
    client.send_line(request);
    auto line = client.read_line(line_timeout);
    if (!line) {
      std::fprintf(stderr, "error: timed out waiting for the server\n");
      return kExitRuntime;
    }
    std::printf("%s\n", line->c_str());
    std::fflush(stdout);
    if (util::starts_with(*line, "ERR")) return kExitRuntime;
    std::uint64_t events_seen = 0;
    while (*max_events == 0 || events_seen < *max_events) {
      line = client.read_line(line_timeout);
      if (!line) {
        std::fprintf(stderr, "error: timed out waiting for events\n");
        return kExitRuntime;
      }
      std::printf("%s\n", line->c_str());
      std::fflush(stdout);
      if (util::starts_with(*line, "EVENT")) ++events_seen;
    }
    return kExitOk;
  } catch (const serve::ServeError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitRuntime;
  }
}

int cmd_synth_stream(int argc, char** argv) {
  const auto args = Args::parse(
      argc, argv, 2,
      {"out", "seed", "tier1", "tier2", "stubs", "vantage-points", "epochs",
       "epoch-seconds", "day-churn", "flap-fraction", "start-timestamp"},
      {});
  if (!args) return kExitUsage;
  const auto seed = args->value_u64("seed", 20230501);
  const auto tier1 = args->value_u64("tier1", 10, kMaxU32);
  const auto tier2 = args->value_u64("tier2", 80, kMaxU32);
  const auto stubs = args->value_u64("stubs", 600, kMaxU32);
  const auto vps = args->value_u64("vantage-points", 60, kMaxU32);
  const auto epochs = args->value_u64("epochs", 4, kMaxU32);
  const auto epoch_seconds = args->value_u64("epoch-seconds", 3600, kMaxU32);
  const auto churn = args->value_double("day-churn", 0.1);
  const auto flap = args->value_double("flap-fraction", 0.05);
  const auto start = args->value_u64("start-timestamp", 1000000000, kMaxU32);
  if (!seed || !tier1 || !tier2 || !stubs || !vps || !epochs ||
      !epoch_seconds || !churn || !flap || !start)
    return kExitUsage;
  if (*epochs == 0 || *epoch_seconds == 0) {
    std::fprintf(stderr,
                 "error: --epochs and --epoch-seconds must be >= 1\n");
    return kExitUsage;
  }
  if (*churn < 0.0 || *churn > 1.0 || *flap < 0.0 || *flap > 1.0) {
    std::fprintf(stderr,
                 "error: --day-churn and --flap-fraction must be in [0, 1]\n");
    return kExitUsage;
  }

  stream::SynthStreamConfig cfg;
  cfg.scenario.topology.seed = *seed;
  cfg.scenario.policy.seed = *seed + 1;
  cfg.scenario.workload_seed = *seed + 2;
  cfg.scenario.topology.tier1_count = static_cast<std::uint32_t>(*tier1);
  cfg.scenario.topology.tier2_count = static_cast<std::uint32_t>(*tier2);
  cfg.scenario.topology.stub_count = static_cast<std::uint32_t>(*stubs);
  cfg.scenario.vantage_point_count = static_cast<std::uint32_t>(*vps);
  cfg.scenario.day_churn = *churn;
  cfg.flap_fraction = *flap;
  cfg.epochs = static_cast<std::uint32_t>(*epochs);
  cfg.epoch_seconds = static_cast<std::uint32_t>(*epoch_seconds);
  cfg.start_timestamp = static_cast<std::uint32_t>(*start);

  stream::SynthStreamStats stats;
  const auto out_path = args->value("out");
  if (out_path) {
    std::ofstream out(*out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path->c_str());
      return kExitRuntime;
    }
    stats = stream::write_update_stream(out, cfg);
    if (!out) {
      std::fprintf(stderr, "error: failed writing %s\n", out_path->c_str());
      return kExitRuntime;
    }
  } else {
    stats = stream::write_update_stream(std::cout, cfg);
  }
  std::fprintf(stderr,
               "wrote %llu update records (%llu announcements, %llu "
               "withdrawals) over %u epochs to %s\n",
               static_cast<unsigned long long>(stats.records),
               static_cast<unsigned long long>(stats.announcements),
               static_cast<unsigned long long>(stats.withdrawals),
               static_cast<unsigned>(*epochs),
               out_path ? out_path->c_str() : "<stdout>");
  return kExitOk;
}

int cmd_recover(int argc, char** argv) {
  const auto args = Args::parse(argc, argv, 2, {}, {});
  if (!args) return kExitUsage;
  if (args->positional().size() != 1) {
    std::fprintf(stderr, "error: usage: bgpintent recover <journal-dir>\n");
    return kExitUsage;
  }
  const std::string& directory = args->positional().front();

  stream::JournalInspection inspection;
  try {
    inspection = stream::inspect_journal(directory);
  } catch (const stream::JournalError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitData;
  }

  std::printf("journal %s\n", directory.c_str());
  std::printf("  segments:   %zu\n", inspection.scan.segments.size());
  std::printf("  records:    %llu\n",
              static_cast<unsigned long long>(inspection.scan.records));
  for (const auto& segment : inspection.scan.segments)
    std::printf("    %s  first=%llu records=%llu%s\n",
                segment.path.c_str(),
                static_cast<unsigned long long>(segment.first_record),
                static_cast<unsigned long long>(segment.records),
                segment.sealed ? " sealed" : "");
  static constexpr const char* kTypeNames[] = {
      "",           "config",     "announce", "withdraw", "epoch",
      "event",      "reclassify", "decode-stats", "footer"};
  for (std::size_t type = 1; type < inspection.type_counts.size(); ++type)
    if (inspection.type_counts[type] > 0)
      std::printf("  %-12s %llu\n", kTypeNames[type],
                  static_cast<unsigned long long>(
                      inspection.type_counts[type]));
  if (inspection.undecodable > 0)
    std::printf("  undecodable: %llu\n",
                static_cast<unsigned long long>(inspection.undecodable));
  std::printf("  last event seq: %llu\n",
              static_cast<unsigned long long>(inspection.last_event_seq));
  for (const auto& [records, path] : inspection.checkpoints)
    std::printf("  checkpoint covering %llu records: %s\n",
                static_cast<unsigned long long>(records), path.c_str());
  if (inspection.checkpoints.empty())
    std::printf("  no checkpoints (recovery replays the full journal)\n");
  if (inspection.scan.torn) {
    std::printf("  TORN TAIL: %s\n", inspection.scan.torn_detail.c_str());
    std::printf(
        "  tolerant recovery (bgpintent stream --journal %s) keeps the "
        "%llu-record prefix;\n  --journal-strict refuses\n",
        directory.c_str(),
        static_cast<unsigned long long>(inspection.scan.records));
    return kExitData;
  }
  std::printf("  clean\n");
  return kExitOk;
}

int cmd_help() {
  std::printf(
      "bgpintent — coarse-grained inference of BGP community intent\n"
      "\n"
      "usage: bgpintent <command> [options]\n"
      "\n"
      "commands:\n"
      "  infer <rib.mrt>...     classify communities from MRT input\n"
      "      ('-' reads stdin; decoded rows stream straight into the\n"
      "      interned core, files are mmap'd when possible)\n"
      "      [--gap N] [--threshold R] [--no-siblings] [--mean-ratios]\n"
      "      [--out file.csv] [--summary file.dict]\n"
      "      [--threads N]      workers (0 = all cores, default; 1 = "
      "sequential)\n"
      "      [--tolerant]       skip malformed MRT records and resync\n"
      "      [--max-errors N] [--max-error-frac R]   tolerant error budget\n"
      "      [--mmap | --no-mmap]   require or disable zero-copy file "
      "maps\n"
      "  simulate               generate a synthetic collector RIB as MRT\n"
      "      [--seed N] [--tier1 N] [--tier2 N] [--stubs N]\n"
      "      [--vantage-points N] [--out rib.mrt] [--dict truth.dict]\n"
      "  relationships <mrt>... infer AS relationships (CAIDA serial-1)\n"
      "      [--out file] [--tolerant] [--max-errors N] "
      "[--max-error-frac R]\n"
      "      [--mmap | --no-mmap]   ('-' reads stdin)\n"
      "  eval <rib.mrt>...      score against a ground-truth dictionary\n"
      "      --dict truth.dict [--gap N] [--threshold R] [--threads N]\n"
      "      [--tolerant] [--max-errors N] [--max-error-frac R]\n"
      "      [--mmap | --no-mmap]   ('-' reads stdin)\n"
      "  annotate <a:b>...      explain community values [--dict file]\n"
      "  mrt-info <file>...     MRT record statistics\n"
      "  mrt-corrupt <in.mrt>   seeded fault injection into a valid MRT "
      "file\n"
      "      --out out.mrt [--kind bitflip|truncate|splice|lengthlie] "
      "[--seed N]\n"
      "  serve [rib.mrt]...     run the live query daemon (docs/SERVING.md)\n"
      "      [--listen ADDR] [--port N] [--shards N]  (--port 0 prints\n"
      "      'LISTENING <port>' on stdout once bound)\n"
      "      [--snapshot file.snap] [--snapshot-interval SECONDS]\n"
      "      [--snapshot-mmap]  (near-instant restart, pages shared\n"
      "      across processes)\n"
      "      [--read-timeout MS] [--gap N] [--threshold R]\n"
      "      [--no-siblings] [--mean-ratios]\n"
      "      [--tolerant] [--max-errors N] [--max-error-frac R]\n"
      "      [--mmap | --no-mmap]   ('-' reads stdin)\n"
      "  query <COMMAND>...     send one protocol command to a daemon\n"
      "      [--host ADDR] [--port N]   e.g.: query LABEL 1299:2569\n"
      "  stream [updates.mrt]...  sliding-window classification of a BGP4MP\n"
      "      update stream ('-' reads stdin; docs/STREAMING.md)\n"
      "      [--serve | --listen ADDR] [--port N] [--shards N]\n"
      "      [--epoch-seconds N] [--window-epochs N]\n"
      "      [--gap N] [--threshold R] [--no-siblings] [--mean-ratios]\n"
      "      [--tolerant] [--max-errors N] [--max-error-frac R]\n"
      "      [--mmap | --no-mmap] [--read-timeout MS]\n"
      "      [--journal DIR]    write-ahead journal; recovers on start\n"
      "      [--fsync never|interval|every-record] [--checkpoint-interval "
      "N]\n"
      "      [--max-segment-bytes N] [--journal-strict]\n"
      "  recover <journal-dir>  inspect a stream journal: segments, record\n"
      "      counts, checkpoints, torn-tail status (read-only)\n"
      "  subscribe              print label-change events from a stream\n"
      "      daemon  [--host ADDR] [--port N] [--snapshot] [--from SEQ]\n"
      "      [--max-events N] [--timeout-ms MS]\n"
      "  synth-stream           write a synthetic BGP4MP update stream\n"
      "      [--out updates.mrt] [--seed N] [--tier1 N] [--tier2 N]\n"
      "      [--stubs N] [--vantage-points N] [--epochs N]\n"
      "      [--epoch-seconds N] [--day-churn R] [--flap-fraction R]\n"
      "      [--start-timestamp N]\n"
      "  help                   this text\n"
      "\n"
      "exit codes: 0 success, 1 runtime error, 2 usage error,\n"
      "            3 unreadable or malformed input, 4 tolerant decode\n"
      "            error budget exceeded (docs/ROBUSTNESS.md)\n");
  return 0;
}

}  // namespace bgpintent::cli
