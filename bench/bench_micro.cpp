// Kernel-level microbenchmarks (google-benchmark): the building blocks whose
// constants determine the engine's throughput — context interning, the
// sharded jmp map, single demand queries, the Andersen baseline, and SCC.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "andersen/andersen.hpp"
#include "cfl/context.hpp"
#include "cfl/grammar.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/solver.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "support/flat_map.hpp"
#include "support/metrics.hpp"
#include "support/scc.hpp"
#include "support/sharded_map.hpp"
#include "support/spinlock.hpp"
#include "support/trace.hpp"
#include "synth/benchmarks.hpp"
#include "synth/generator.hpp"

namespace {

using namespace parcfl;

const pag::Pag& workload_pag() {
  static const pag::Pag pag = [] {
    synth::GeneratorConfig cfg;
    cfg.seed = 77;
    cfg.app_methods = 30;
    cfg.library_methods = 30;
    cfg.containers = 4;
    cfg.container_use_blocks = 24;
    auto lowered = frontend::lower(synth::generate(cfg));
    return std::move(pag::collapse_assign_cycles(lowered.pag).pag);
  }();
  return pag;
}

std::vector<pag::NodeId> workload_queries(const pag::Pag& pag) {
  std::vector<pag::NodeId> out;
  for (std::uint32_t n = 0; n < pag.node_count(); ++n)
    if (pag.kind(pag::NodeId(n)) == pag::NodeKind::kLocal &&
        pag.node(pag::NodeId(n)).is_application)
      out.push_back(pag::NodeId(n));
  return out;
}

// Keys shaped like the solver's memo keys: (node << 32) | ctx with small,
// clustered node and context ranges. This is the distribution the flat
// tables were tuned for; the paired std::unordered_map benchmarks measure
// what the solver hot path used to pay per probe.
std::vector<std::uint64_t> solver_like_keys(std::size_t count) {
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  std::mt19937_64 rng(2014);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t node = rng() % 4096;
    const std::uint64_t ctx = rng() % 256;
    keys.push_back((node << 32) | ctx);
  }
  return keys;
}

// One simulated query: reset the memo table, upsert every key (mix of hits
// and misses since keys repeat), then probe again — the access pattern of
// compute_points_to's visited/memo checks.
void BM_FlatMapMemoPattern(benchmark::State& state) {
  const auto keys = solver_like_keys(4096);
  support::FlatMap<std::uint32_t> map;
  for (auto _ : state) {
    map.clear();  // O(1) epoch bump
    std::uint64_t hits = 0;
    for (const std::uint64_t k : keys) {
      auto slot = map.try_emplace(k);
      if (slot.inserted) slot.value = static_cast<std::uint32_t>(k);
    }
    for (const std::uint64_t k : keys) hits += map.find(k) != nullptr;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * keys.size()));
}
BENCHMARK(BM_FlatMapMemoPattern);

void BM_StdUnorderedMapMemoPattern(benchmark::State& state) {
  const auto keys = solver_like_keys(4096);
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  for (auto _ : state) {
    map.clear();  // O(buckets), and the erased nodes were heap allocations
    std::uint64_t hits = 0;
    for (const std::uint64_t k : keys)
      map.try_emplace(k, static_cast<std::uint32_t>(k));
    for (const std::uint64_t k : keys) hits += map.count(k);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * keys.size()));
}
BENCHMARK(BM_StdUnorderedMapMemoPattern);

// Isolated epoch-clear cost: the solver clears six tables per run_query, so
// clear must be O(1), not O(capacity) or O(live entries with heap frees).
void BM_FlatSetEpochClear(benchmark::State& state) {
  const auto keys = solver_like_keys(4096);
  support::FlatSet set;
  for (const std::uint64_t k : keys) set.insert(k);
  for (auto _ : state) {
    set.clear();
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_FlatSetEpochClear);

void BM_ContextPush(benchmark::State& state) {
  cfl::ContextTable table;
  std::uint32_t site = 0;
  for (auto _ : state) {
    cfl::CtxId c = cfl::ContextTable::empty();
    for (int d = 0; d < 8; ++d)
      c = table.push(c, pag::CallSiteId(site++ % 64));
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ContextPush);

void BM_ContextPopTop(benchmark::State& state) {
  cfl::ContextTable table;
  cfl::CtxId c = cfl::ContextTable::empty();
  for (int d = 0; d < 16; ++d) c = table.push(c, pag::CallSiteId(d));
  for (auto _ : state) {
    cfl::CtxId cur = c;
    std::uint64_t sum = 0;
    while (cur != cfl::ContextTable::empty()) {
      sum += table.top(cur).value();
      cur = table.pop(cur);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ContextPopTop);

void BM_ShardedMapInsertLookup(benchmark::State& state) {
  support::ShardedMap<std::uint64_t, std::uint64_t> map;
  std::uint64_t key = 0;
  for (auto _ : state) {
    map.insert_if_absent(key & 1023, key);
    std::uint64_t out = 0;
    benchmark::DoNotOptimize(map.find_copy((key * 7) & 1023, out));
    ++key;
  }
}
BENCHMARK(BM_ShardedMapInsertLookup);

void BM_JmpStoreLookupHit(benchmark::State& state) {
  cfl::JmpStore store;
  for (std::uint32_t i = 0; i < 1024; ++i)
    store.insert_finished(
        cfl::JmpStore::key(cfl::Direction::kBackward, pag::NodeId(i), cfl::CtxId(0)),
        100, {{pag::NodeId(i + 1), cfl::CtxId(0), 50}});
  std::uint32_t i = 0;
  for (auto _ : state) {
    cfl::JmpStore::Lookup lk;
    benchmark::DoNotOptimize(store.lookup(
        cfl::JmpStore::key(cfl::Direction::kBackward, pag::NodeId(i++ & 1023),
                           cfl::CtxId(0)),
        lk));
  }
}
BENCHMARK(BM_JmpStoreLookupHit);

// ---- Jmp-lookup contention (DESIGN.md §9) --------------------------------
//
// N reader threads hammering a hot key set, the access pattern of parallel
// workers riding a warm jmp store. Two arms:
//
//  * Locked: a faithful replica of the pre-EBR read path — 64 spinlock
//    shards, a FlatKV per shard, and a shared_ptr<const FinishedJmp> copied
//    under the lock (refcount RMW + lock word bouncing between cores).
//  * Epoch: JmpStore::lookup — no lock, no RMW; one epoch pin held across
//    the loop like the solver holds it across a query.
//
// The ratio at 8 threads is the PR-tracked contention number (EXPERIMENTS.md).

class LockedJmpMap {
 public:
  struct Entry {
    std::shared_ptr<const cfl::FinishedJmp> finished;
    std::uint32_t unfinished_s = 0;
  };
  struct Lookup {
    std::shared_ptr<const cfl::FinishedJmp> finished;
    std::uint32_t unfinished_s = 0;
  };

  void insert_finished(std::uint64_t k, std::uint32_t cost,
                       std::vector<cfl::JmpTarget> targets) {
    Shard& s = shard(k);
    std::lock_guard<support::SpinLock> lock(s.mu);
    auto [entry, inserted] = s.map.try_emplace(k);
    if (entry->finished != nullptr) return;
    entry->finished = std::make_shared<const cfl::FinishedJmp>(
        cfl::FinishedJmp{cost, std::move(targets)});
  }

  bool lookup(std::uint64_t k, Lookup& out) const {
    const Shard& s = shard(k);
    std::lock_guard<support::SpinLock> lock(s.mu);
    const Entry* e = s.map.find(k);
    if (e == nullptr) return false;
    out.finished = e->finished;  // refcount increment under the lock
    out.unfinished_s = e->unfinished_s;
    return out.finished != nullptr || out.unfinished_s != 0;
  }

 private:
  struct alignas(64) Shard {
    mutable support::SpinLock mu;
    support::FlatKV<std::uint64_t, Entry> map;
  };
  Shard& shard(std::uint64_t k) const {
    std::uint64_t h = k;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return shards_[h & 63];
  }
  mutable Shard shards_[64];
};

constexpr std::uint32_t kContendedKeys = 256;

std::uint64_t contended_key(std::uint32_t i) {
  return cfl::JmpStore::key(cfl::Direction::kBackward,
                            pag::NodeId(i % kContendedKeys), cfl::CtxId(0));
}

std::vector<cfl::JmpTarget> contended_targets(std::uint32_t i) {
  return {{pag::NodeId(i + 1), cfl::CtxId(0), 50},
          {pag::NodeId(i + 2), cfl::CtxId(1), 70}};
}

void BM_JmpLookupContendedLocked(benchmark::State& state) {
  static LockedJmpMap* map = [] {
    auto* m = new LockedJmpMap();
    for (std::uint32_t i = 0; i < kContendedKeys; ++i)
      m->insert_finished(contended_key(i), 100 + i, contended_targets(i));
    return m;
  }();
  std::uint32_t i = static_cast<std::uint32_t>(state.thread_index()) * 7919;
  std::uint64_t found = 0;
  for (auto _ : state) {
    LockedJmpMap::Lookup lk;
    if (map->lookup(contended_key(i++), lk))
      found += lk.finished->targets.size();
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JmpLookupContendedLocked)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_JmpLookupContendedEpoch(benchmark::State& state) {
  static cfl::JmpStore* store = [] {
    auto* s = new cfl::JmpStore();
    for (std::uint32_t i = 0; i < kContendedKeys; ++i)
      s->insert_finished(contended_key(i), 100 + i, contended_targets(i));
    return s;
  }();
  const auto pin = store->pin();  // one pin per "query", as the solver does
  std::uint32_t i = static_cast<std::uint32_t>(state.thread_index()) * 7919;
  std::uint64_t found = 0;
  for (auto _ : state) {
    cfl::JmpStore::Lookup lk;
    if (store->lookup(contended_key(i++), lk))
      found += lk.finished->targets.size();
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JmpLookupContendedEpoch)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Headline number: full batch of demand queries on the medium synth config,
// single thread, no sharing — the per-step constant factor in its purest form.
// items_per_second in the JSON output is the queries/sec trajectory tracked
// across PRs (see EXPERIMENTS.md).
void BM_QueryBatchMedium(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::Solver solver(pag, contexts, nullptr, so);
  for (auto _ : state) {
    for (const pag::NodeId q : queries)
      benchmark::DoNotOptimize(solver.points_to(q));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_QueryBatchMedium);

// The same batch answered through the generic compiled-table walker with the
// pointer grammar. The delta vs. BM_QueryBatchMedium is the whole cost of
// table dispatch over the hard-coded fast path — DESIGN.md §15 records why
// that delta stays small (the table fits in one cache line; the fast path
// keeps the headline free of even that).
void BM_QueryBatchMediumGenericTable(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::Solver solver(pag, contexts, nullptr, so);
  const cfl::GrammarTable& table = cfl::pointer_backward_table();
  for (auto _ : state) {
    for (const pag::NodeId q : queries)
      benchmark::DoNotOptimize(solver.reach(q, table));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_QueryBatchMediumGenericTable);

// Per-kind throughput for the flow verbs (EXPERIMENTS.md records all three
// rows). Taint/depends traverse copy chains without the ReachableNodes
// sub-query fan-out of the pointer grammar, so they complete more traversals
// per budget unit on the same graph.
void BM_QueryBatchTaint(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::Solver solver(pag, contexts, nullptr, so);
  const cfl::GrammarTable& table = cfl::taint_table();
  for (auto _ : state) {
    for (const pag::NodeId q : queries)
      benchmark::DoNotOptimize(solver.reach(q, table));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_QueryBatchTaint);

void BM_QueryBatchDepends(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::Solver solver(pag, contexts, nullptr, so);
  const cfl::GrammarTable& table = cfl::depends_table();
  for (auto _ : state) {
    for (const pag::NodeId q : queries)
      benchmark::DoNotOptimize(solver.reach(q, table));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_QueryBatchDepends);

// Per-step cost of budget-exhausting queries: fop at scale 2 (the Table-I
// program whose exhausting tail dominates a batch-table1 pass), the first
// kExhausting of its query variables that run out of the 100k budget the
// Table-I batches use, answered by a cold non-sharing solver. Exhausting
// queries re-evaluate ReachableNodes against warm memo tables between steps,
// work the budget never charges, so steps/s here tracks that uncharged
// overhead (DESIGN.md §6, heap-match cache) where the completing headline
// batch cannot see it.
void BM_BudgetExhausting(benchmark::State& state) {
  constexpr std::uint64_t kBudget = 100'000;
  constexpr std::size_t kExhausting = 8;
  static const pag::Pag pag = [] {
    auto lowered = frontend::lower(synth::build_benchmark("fop", 2.0));
    return std::move(pag::collapse_assign_cycles(lowered.pag).pag);
  }();
  cfl::SolverOptions so;
  so.budget = kBudget;
  static const std::vector<pag::NodeId> queries = [&] {
    cfl::ContextTable contexts;
    cfl::Solver probe(pag, contexts, nullptr, so);
    std::vector<pag::NodeId> out;
    cfl::QueryResult qr;
    for (const pag::NodeId q : workload_queries(pag)) {
      probe.points_to(q, qr);
      if (qr.status == cfl::QueryStatus::kOutOfBudget) out.push_back(q);
      if (out.size() == kExhausting) break;
    }
    return out;
  }();
  if (queries.empty()) {
    state.SkipWithError("no budget-exhausting query");
    return;
  }
  std::uint64_t steps = 0;
  cfl::QueryResult qr;
  for (auto _ : state) {
    // A fresh solver and context table per iteration keep every iteration
    // the same cold work.
    cfl::ContextTable contexts;
    cfl::Solver solver(pag, contexts, nullptr, so);
    for (const pag::NodeId q : queries) solver.points_to(q, qr);
    steps += solver.counters().traversed_steps;
  }
  state.counters["steps_per_second"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_BudgetExhausting)->Unit(benchmark::kMillisecond);

// ---- Instrumentation overhead (DESIGN.md §10) ----------------------------
//
// The pair that keeps tracing honest. BM_QueryBatchMedium above is the
// headline with trace_level 0, where the only residue of the observability
// layer is a null-pointer test per emit site; BM_QueryBatchMediumTraced runs
// the identical batch at trace_level 2 with a live ring, paying a 24-byte
// store per event. EXPERIMENTS.md records both: the off number must stay
// within 2% of the previous PR's headline, and the traced number bounds what
// a slow-query capture costs when it actually fires.
void BM_QueryBatchMediumTraced(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  so.trace_level = 2;
  cfl::Solver solver(pag, contexts, nullptr, so);
  obs::TraceRing ring(1024);
  solver.set_trace(&ring);
  for (auto _ : state) {
    for (const pag::NodeId q : queries)
      benchmark::DoNotOptimize(solver.points_to(q));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_QueryBatchMediumTraced);

// The registry's whole write path: one relaxed fetch_add on a per-thread
// cell. Multi-threaded arms confirm the padding keeps writers off each
// other's cache lines (flat scaling, not inverse).
void BM_MetricsCounterAdd(benchmark::State& state) {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  static const auto id =
      registry->counter("bench_adds_total", "Microbenchmark counter.");
  for (auto _ : state) registry->add(id);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_MetricsHistogramObserve(benchmark::State& state) {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  static const auto id = registry->histogram(
      "bench_latency_ms", "Microbenchmark histogram.",
      {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000});
  double v = 0.05;
  for (auto _ : state) {
    registry->observe(id, v);
    v = v < 900.0 ? v * 1.7 : 0.05;  // sweep the buckets
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_SingleQueryNoSharing(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::Solver solver(pag, contexts, nullptr, so);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.points_to(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_SingleQueryNoSharing);

void BM_SingleQuerySharing(benchmark::State& state) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  cfl::SolverOptions so;
  so.budget = 50'000;
  so.data_sharing = true;
  so.tau_finished = 10;
  so.tau_unfinished = 1000;
  cfl::Solver solver(pag, contexts, &store, so);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.points_to(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_SingleQuerySharing);

void BM_AndersenSolve(benchmark::State& state) {
  const auto& pag = workload_pag();
  for (auto _ : state) {
    benchmark::DoNotOptimize(andersen::solve(pag));
  }
}
BENCHMARK(BM_AndersenSolve);

void BM_SccLargeChainWithCycles(benchmark::State& state) {
  const std::uint32_t n = 50'000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    edges.emplace_back(i, i + 1);
    if (i % 17 == 0 && i >= 16) edges.emplace_back(i, i - 16);
  }
  const auto g = support::CsrGraph::from_edges(n, edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::strongly_connected_components(g));
  }
}
BENCHMARK(BM_SccLargeChainWithCycles);

// ---- Headline guard (--headline-guard[=<baseline_qps>]) -------------------
//
// CI-facing regression gate for the pointer fast path: re-times the
// BM_QueryBatchMedium workload with best-of-N wall-clock batches (robust to
// scheduler noise on shared runners, where taskset is unavailable), writes
// the verdict to BENCH_headline.json, and exits non-zero when the measured
// queries/sec falls more than 2% below the baseline.

// Seed headline on the reference builder: best-of-9 in-process reps from a
// clean Release build of the pre-grammar-table tree (git worktree at the
// parent commit, same compiler and flags), the same protocol this guard
// uses. Interleaved cross-process A/B put the median delta at +0.1%. Pass
// --headline-guard=<qps> to re-pin on different hardware.
constexpr double kSeedHeadlineQps = 1.21e6;

template <class Batch>
double best_qps(std::size_t n_queries, int warmups, int reps, Batch&& batch) {
  for (int i = 0; i < warmups; ++i) batch();
  double best_s = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    batch();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (s < best_s) best_s = s;
  }
  return static_cast<double>(n_queries) / best_s;
}

int run_headline_guard(double baseline_qps) {
  const auto& pag = workload_pag();
  const auto queries = workload_queries(pag);
  cfl::SolverOptions so;
  so.budget = 50'000;
  cfl::ContextTable fast_contexts;
  cfl::Solver fast(pag, fast_contexts, nullptr, so);
  const double headline = best_qps(queries.size(), 3, 9, [&] {
    for (const pag::NodeId q : queries)
      benchmark::DoNotOptimize(fast.points_to(q));
  });
  auto kind_qps = [&](const cfl::GrammarTable& table) {
    cfl::ContextTable contexts;
    cfl::Solver solver(pag, contexts, nullptr, so);
    return best_qps(queries.size(), 1, 3, [&] {
      for (const pag::NodeId q : queries)
        benchmark::DoNotOptimize(solver.reach(q, table));
    });
  };
  const double generic = kind_qps(cfl::pointer_backward_table());
  const double taint = kind_qps(cfl::taint_table());
  const double depends = kind_qps(cfl::depends_table());
  const double floor_qps = baseline_qps * 0.98;
  const double delta_pct = 100.0 * (headline - baseline_qps) / baseline_qps;
  const bool pass = headline >= floor_qps;
  if (std::FILE* f = std::fopen("BENCH_headline.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"BM_QueryBatchMedium (best-of-9)\",\n"
                 "  \"baseline_qps\": %.1f,\n"
                 "  \"headline_qps\": %.1f,\n"
                 "  \"delta_pct\": %.2f,\n"
                 "  \"floor_qps\": %.1f,\n"
                 "  \"pass\": %s,\n"
                 "  \"generic_table_qps\": %.1f,\n"
                 "  \"taint_qps\": %.1f,\n"
                 "  \"depends_qps\": %.1f\n"
                 "}\n",
                 baseline_qps, headline, delta_pct, floor_qps,
                 pass ? "true" : "false", generic, taint, depends);
    std::fclose(f);
  }
  std::fprintf(stderr,
               "headline-guard: %.0f q/s vs baseline %.0f q/s "
               "(%+.2f%%, floor %.0f) -> %s\n",
               headline, baseline_qps, delta_pct, floor_qps,
               pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

// Unless the caller already chose an output file, emit machine-readable
// results to BENCH_micro.json in the working directory so the perf
// trajectory can be tracked (and diffed) across PRs.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--headline-guard", 16) == 0) {
      double baseline = kSeedHeadlineQps;
      if (argv[i][16] == '=') baseline = std::strtod(argv[i] + 17, nullptr);
      if (baseline <= 0.0) {
        std::fprintf(stderr, "headline-guard: bad baseline '%s'\n", argv[i]);
        return 2;
      }
      return run_headline_guard(baseline);
    }
  }
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
