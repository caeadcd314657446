#pragma once
// Workload parameters and entry points. Every number that shapes a workload
// lives here, so README.md and the code cannot drift apart silently.

#include <cstdint>
#include <string>

namespace perfbench {

// ---- shared engine configuration (parcfl_serve's defaults) ----------------
/// Engine worker threads on every workload: below nproc (4 on the reference
/// host). jess at scale 2 holds 47-64 ms on 3 threads but swings 68-331 ms
/// on 4, so a 4-thread figure measures the host, not the change.
inline constexpr unsigned kEngineThreads = 3;
inline constexpr std::uint64_t kBudget = 100'000;
inline constexpr std::uint32_t kTauFinished = 100;
inline constexpr std::uint32_t kTauUnfinished = 10'000;

// ---- batch-table1 ---------------------------------------------------------
/// All 20 Table-I programs at this scale, each generated from its suite seed.
inline constexpr double kBatchScale = 2.0;

// ---- serving workloads ----------------------------------------------------
/// Both serving workloads serve luindex: serve-hot at scale 2, which keeps
/// its 68 budget-exhausting roots (of 664) at their natural share, so the
/// index compactor's cold solves show in set-up; serve-churn at scale 1 (315
/// roots, none budget-exhausting). At scale 2 every update dirties hot
/// budget-exhausting roots; whether the compactor re-mines them before the
/// next update is a race, and runs of one seed spread 2x in latency.
inline constexpr const char* kServeProgram = "luindex";
inline constexpr double kHotScale = 2.0;
inline constexpr double kChurnScale = 1.0;
/// The request mix is parcfl_loadgen's, the repository's own serving load
/// generator, not a measured production trace (there is none to follow):
///  * root popularity is Zipf with loadgen's skew (--tenant-skew, 1.0);
///  * alias on every 8th request (loadgen's default --alias-every 8), taint
///    on every 8th and depends on every 12th (the mixed-traffic arm that
///    EXPERIMENTS.md and CI run: --taint-every 8 --depends-every 12).
/// loadgen puts taint and alias on the same stride offset, so there taint
/// shadows every alias; here each verb keeps its own share. A block is the
/// strides' least common multiple, 24 requests: 16 query, 3 alias, 3 taint,
/// 2 depends (67/12.5/12.5/8.3%).
inline constexpr double kZipfSkew = 1.0;
inline constexpr unsigned kBlock = 24;
inline constexpr unsigned kBlockAlias = kBlock / 8;
inline constexpr unsigned kBlockTaint = kBlock / 8;
inline constexpr unsigned kBlockDepends = kBlock / 12;
inline constexpr unsigned kBlockQueries =
    kBlock - kBlockAlias - kBlockTaint - kBlockDepends;
/// Blocks per round. The flow requests of a round are fixed, drawn once from
/// kLayoutSeed: kRoundBlocks * kBlockTaint taint and kRoundBlocks *
/// kBlockDepends depends pairs, each sent once per round. They cannot be
/// drawn per seed: the flow-verb fault fails some pairs and not others, and
/// the failed share must be the same in every run.
inline constexpr unsigned kRoundBlocks = 10;
inline constexpr unsigned kFlowTaint = kRoundBlocks * kBlockTaint;
inline constexpr unsigned kFlowDepends = kRoundBlocks * kBlockDepends;
/// Constant seed of the serving layout: the flow requests, the popularity
/// order of the roots and the delta edge sets. The flow requests fixed, the
/// flow-verb fault fails the same requests in every run; which roots are hot
/// and which edges churn decides how much re-solving a run pays, so a
/// per-seed layout would make each seed a different workload. --seed draws
/// the request sequences over this layout.
inline constexpr std::uint64_t kLayoutSeed = 0x5eed'f10e;
/// Client connections for serve-hot (closed loop, one process).
inline constexpr unsigned kHotConnections = 4;
/// Requests per root during warm-up: each root must appear in at least
/// index_hot_threshold (4) solver batches to be mined into the index.
inline constexpr unsigned kWarmupRepeats = 5;
/// Distinct request rounds written per seed; runs cycle through them.
inline constexpr unsigned kScheduleRounds = 64;

/// serve-churn: kDeltaSets edge sets S_i, each one local assignment and one
/// allocation, all absent from the base graph. The graph starts at base +
/// S_last (`init.delta`); update `swap_i` removes S_(i-1) and adds S_i, so
/// every update is the same kind of change. A round is kRoundBlocks cycles;
/// cycle c sends `update swap_(c mod kDeltaSets)`, then one block of the
/// request mix whose flow requests are the round's c-th share, so every flow
/// request rides the same cycle, hence the same revision, in every round.
inline constexpr unsigned kDeltaSets = 5;
inline constexpr unsigned kDeltaAssignEdges = 1;
inline constexpr unsigned kDeltaNewEdges = 1;
static_assert(kRoundBlocks % kDeltaSets == 0,
              "a round returns the graph to the revision it started on");
/// Open-loop send rate (requests and updates alike), per second. The repo
/// has no default to follow (loadgen's --rate 0 is unpaced), so this is a
/// choice: well below the in-process capacity (~6k requests/s), with an
/// update every 25 sends (100 ms), so a run of 10 s applies 100 updates
/// and the update p90 has 10 samples beyond it.
inline constexpr double kChurnRate = 250.0;

/// How many times an untraced serving run sets the program up; setup_s is
/// the median, and only the last set-up serves the measured phase. On
/// serve-hot one set-up in a run may read 25% slower than the others: over
/// ten runs the first set-up alone spread 0.15, the median of three 0.07.
inline constexpr unsigned kServeSetups = 3;

struct RunArgs {
  std::string workload;
  std::string dir;       // inputs written by `gen`, outputs of the run
  std::string bin_dir;   // where parcfl_serve lives (serve-hot)
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Write the seeded inputs of `workload` into `dir`.
int generate_inputs(const std::string& workload, std::uint64_t seed,
                    const std::string& dir);

int run_batch_table1(const RunArgs& args);
int run_serve_hot(const RunArgs& args);
int run_serve_churn(const RunArgs& args);

}  // namespace perfbench
