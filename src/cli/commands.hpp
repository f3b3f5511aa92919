// Subcommands of the bgpintent CLI.  Each takes already-parsed argv and
// returns a process exit code.
#pragma once

namespace bgpintent::cli {

// Process exit codes (docs/ROBUSTNESS.md).  Scripts and CI gate on these:
// a decode failure under --tolerant --max-errors N is distinguishable from
// a typo'd flag without parsing stderr.
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;  ///< everything not covered below
inline constexpr int kExitUsage = 2;    ///< bad flags / missing arguments
inline constexpr int kExitData = 3;     ///< unreadable or malformed input
inline constexpr int kExitBudget = 4;   ///< tolerant decode budget exceeded

/// `bgpintent infer <rib.mrt>...` — classify community intent from MRT
/// input, write per-community CSV and optional dictionary summary.
int cmd_infer(int argc, char** argv);

/// `bgpintent simulate` — generate a synthetic Internet and write its
/// collector RIB as MRT plus the ground-truth dictionary.
int cmd_simulate(int argc, char** argv);

/// `bgpintent relationships <rib.mrt>...` — infer AS relationships from
/// the AS paths in MRT input (CAIDA serial-1 output).
int cmd_relationships(int argc, char** argv);

/// `bgpintent eval <rib.mrt> --dict truth.dict` — score inferences against
/// a ground-truth dictionary.
int cmd_eval(int argc, char** argv);

/// `bgpintent annotate <community>...` — explain community values using a
/// dictionary (built-in by default).
int cmd_annotate(int argc, char** argv);

/// `bgpintent mrt-info <file.mrt>...` — record/statistics summary of MRT
/// files.
int cmd_mrt_info(int argc, char** argv);

/// `bgpintent mrt-corrupt <in.mrt> --out <out.mrt> --kind <kind>` — apply
/// one seeded corruption to a valid MRT file (fault-injection tooling).
int cmd_mrt_corrupt(int argc, char** argv);

/// `bgpintent serve [rib.mrt]...` — run the long-lived TCP query daemon,
/// optionally primed from MRT files and/or a state snapshot.
int cmd_serve(int argc, char** argv);

/// `bgpintent query <COMMAND>...` — send one protocol line to a running
/// daemon and print the response.
int cmd_query(int argc, char** argv);

/// `bgpintent stream [updates.mrt]...` — consume a BGP4MP update stream
/// ('-' reads stdin) into the sliding-window classifier, optionally
/// serving live queries and SUBSCRIBE push (docs/STREAMING.md).
int cmd_stream(int argc, char** argv);

/// `bgpintent subscribe` — attach to a serve or stream daemon and print
/// label-change events as they happen.
int cmd_subscribe(int argc, char** argv);

/// `bgpintent synth-stream` — write a synthetic BGP4MP update stream
/// generated from simulator churn (the firehose fixture for tests, CI,
/// and benches).
int cmd_synth_stream(int argc, char** argv);

/// `bgpintent recover <journal-dir>` — read-only inspection of a stream
/// journal: segments, per-type record counts, checkpoints, torn-tail
/// status (docs/STREAMING.md §6).
int cmd_recover(int argc, char** argv);

/// Prints global usage.
int cmd_help();

}  // namespace bgpintent::cli
