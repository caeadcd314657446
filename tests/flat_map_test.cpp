// Tests for the hot-path flat tables (FlatSet / FlatMap / FlatKV), the
// epoch-reset + slab machinery behind Solver query state, and the two
// end-to-end guarantees the overhaul must preserve: identical answers in all
// four engine modes, and an allocation-free steady state for repeated query
// batches on one solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cfl/engine.hpp"
#include "cfl/solver.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "support/flat_map.hpp"
#include "support/flat_set.hpp"
#include "support/slab.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

namespace parcfl {
namespace {

using support::FlatKV;
using support::FlatMap;
using support::FlatSet;

// ---- FlatSet -------------------------------------------------------------

TEST(FlatSet, InsertContainsAndGrowth) {
  FlatSet set;
  std::mt19937_64 rng(123);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng());

  for (std::uint64_t k : keys) EXPECT_TRUE(set.insert(k));
  EXPECT_EQ(set.size(), keys.size());
  EXPECT_GT(set.rehash_count(), 0u) << "5000 keys must outgrow the seed table";

  for (std::uint64_t k : keys) {
    EXPECT_TRUE(set.contains(k));
    EXPECT_FALSE(set.insert(k)) << "duplicate insert must report not-new";
  }
  EXPECT_EQ(set.size(), keys.size());

  std::mt19937_64 probe(456);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = probe();
    const bool expected = std::find(keys.begin(), keys.end(), k) != keys.end();
    EXPECT_EQ(set.contains(k), expected);
  }
}

TEST(FlatSet, AdversarialClusteredKeys) {
  // Solver keys are (node << 32) | ctx with tiny node/ctx ranges — maximally
  // clustered low-entropy keys. The mixer must still spread them.
  FlatSet set;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t node = 0; node < 64; ++node)
    for (std::uint64_t ctx = 0; ctx < 64; ++ctx)
      keys.push_back((node << 32) | ctx);

  for (std::uint64_t k : keys) ASSERT_TRUE(set.insert(k));
  for (std::uint64_t k : keys) ASSERT_TRUE(set.contains(k));
  EXPECT_FALSE(set.contains((64ull << 32) | 0));
  EXPECT_EQ(set.size(), keys.size());
}

TEST(FlatSet, KeyZeroIsAValidKey) {
  FlatSet set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.insert(0));
  set.clear();
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
}

TEST(FlatSet, EpochClearForgetsEverythingWithoutRehashing) {
  FlatSet set;
  set.reserve(4096);
  const std::uint64_t rehashes_after_reserve = set.rehash_count();

  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 3000; ++i) keys.push_back(rng());
    for (std::uint64_t k : keys) ASSERT_TRUE(set.insert(k));
    for (std::uint64_t k : keys) ASSERT_TRUE(set.contains(k));
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    for (std::uint64_t k : keys)
      ASSERT_FALSE(set.contains(k)) << "stale hit after epoch clear";
  }
  EXPECT_EQ(set.rehash_count(), rehashes_after_reserve)
      << "steady-state clear/insert cycles must not grow the table";
}

// ---- FlatMap -------------------------------------------------------------

TEST(FlatMap, TryEmplaceFindAndValueSurvivesRehash) {
  FlatMap<std::uint32_t> map;
  std::mt19937_64 rng(99);
  std::map<std::uint64_t, std::uint32_t> reference;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng();
    auto slot = map.try_emplace(k);
    if (slot.inserted) slot.value = static_cast<std::uint32_t>(i);
    reference.emplace(k, static_cast<std::uint32_t>(i));
  }
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [k, v] : reference) {
    const std::uint32_t* found = map.find(k);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v) << "value lost across rehash";
  }
  EXPECT_EQ(map.find(~0ull), nullptr);
}

TEST(FlatMap, InsertOnlyContractFirstValueWins) {
  FlatMap<std::uint32_t> map;
  auto first = map.try_emplace(42, 7);
  ASSERT_TRUE(first.inserted);
  EXPECT_EQ(first.value, 7u);
  auto second = map.try_emplace(42, 999);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(second.value, 7u) << "try_emplace must not overwrite";
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, EpochClearThenReuse) {
  FlatMap<std::uint32_t> map;
  for (std::uint64_t k = 0; k < 100; ++k) map.try_emplace(k, 1);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_EQ(map.find(k), nullptr);
  // Re-inserting after clear default-initialises fresh values.
  auto slot = map.try_emplace(5, 2);
  EXPECT_TRUE(slot.inserted);
  EXPECT_EQ(slot.value, 2u);
}

TEST(FlatMap, ForEachVisitsExactlyTheLiveEntries) {
  FlatMap<std::uint32_t> map;
  map.try_emplace(10, 1);
  map.try_emplace(20, 2);
  map.clear();
  map.try_emplace(30, 3);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  map.for_each([&](std::uint64_t k, std::uint32_t& v) { seen.emplace_back(k, v); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 30u);
  EXPECT_EQ(seen[0].second, 3u);
}

// ---- FlatKV (generic-key table used by ShardedMap shards) ---------------

TEST(FlatKV, NonTrivialValuesAndClear) {
  FlatKV<std::uint64_t, std::string> kv;
  for (std::uint64_t k = 0; k < 500; ++k) {
    auto [value, inserted] = kv.try_emplace(k * 1024);
    ASSERT_TRUE(inserted);
    *value = "v" + std::to_string(k);
  }
  EXPECT_EQ(kv.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::string* v = kv.find(k * 1024);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  EXPECT_EQ(kv.find(1), nullptr);

  std::size_t visited = 0;
  kv.for_each([&](const std::uint64_t&, const std::string&) { ++visited; });
  EXPECT_EQ(visited, 500u);

  kv.clear();
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.find(0), nullptr);
  auto [value, inserted] = kv.try_emplace(0);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(value->empty()) << "clear must reset recycled values";
}

// ---- Slab ----------------------------------------------------------------

TEST(Slab, AddressesStableAndRecycledAcrossReset) {
  support::Slab<std::vector<int>> slab;
  auto [i0, v0] = slab.acquire();
  auto [i1, v1] = slab.acquire();
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  v0->assign({1, 2, 3});
  v1->reserve(64);
  std::vector<int>* const p0 = v0;
  std::vector<int>* const p1 = v1;

  slab.reset();
  EXPECT_EQ(slab.used(), 0u);
  auto [r0, w0] = slab.acquire();
  auto [r1, w1] = slab.acquire();
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 1u);
  EXPECT_EQ(w0, p0) << "reset must recycle the same objects in order";
  EXPECT_EQ(w1, p1);
  EXPECT_GE(w1->capacity(), 64u) << "recycling must keep buffer capacity";
  EXPECT_EQ(slab.constructed(), 2u);
  auto [r2, w2] = slab.acquire();
  EXPECT_EQ(r2, 2u);
  EXPECT_EQ(slab.constructed(), 3u);
  EXPECT_EQ(&slab[0], p0);
}

// ---- End-to-end: all four modes agree, including full object sets --------

struct Workload {
  pag::Pag pag;
  std::vector<pag::NodeId> queries;
};

Workload medium_workload() {
  synth::GeneratorConfig cfg;
  cfg.seed = 77;
  cfg.app_methods = 14;
  cfg.library_methods = 14;
  cfg.containers = 3;
  cfg.container_use_blocks = 12;
  const auto lowered = frontend::lower(synth::generate(cfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<pag::NodeId> queries;
  for (const pag::NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return Workload{std::move(collapsed.pag), std::move(queries)};
}

using OutcomeKey = std::pair<cfl::QueryStatus, std::vector<pag::NodeId>>;

std::map<std::uint32_t, OutcomeKey> outcomes_by_var(const cfl::EngineResult& r) {
  std::map<std::uint32_t, OutcomeKey> m;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    std::vector<pag::NodeId> objs = r.objects[i];
    std::sort(objs.begin(), objs.end());
    m[r.outcomes[i].var.value()] = {r.outcomes[i].status, std::move(objs)};
  }
  return m;
}

TEST(FlatTablesEndToEnd, AllFourModesProduceIdenticalOutcomes) {
  const Workload w = medium_workload();
  ASSERT_GE(w.queries.size(), 8u);

  auto run = [&](cfl::Mode mode, unsigned threads) {
    cfl::EngineOptions o;
    o.mode = mode;
    o.threads = threads;
    o.collect_objects = true;
    o.solver.budget = 200'000;
    o.solver.tau_finished = 10;
    o.solver.tau_unfinished = 100;
    cfl::Engine engine(w.pag, o);
    return outcomes_by_var(engine.run(w.queries));
  };

  const auto baseline = run(cfl::Mode::kSequential, 1);
  ASSERT_EQ(baseline.size(), w.queries.size());

  const struct {
    cfl::Mode mode;
    unsigned threads;
    const char* name;
  } configs[] = {
      {cfl::Mode::kNaive, 4, "ParCFL_naive"},
      {cfl::Mode::kDataSharing, 4, "ParCFL_D"},
      {cfl::Mode::kDataSharingScheduling, 4, "ParCFL_DQ"},
  };
  for (const auto& c : configs) {
    const auto got = run(c.mode, c.threads);
    ASSERT_EQ(got.size(), baseline.size()) << c.name;
    for (const auto& [var, expected] : baseline) {
      const auto it = got.find(var);
      ASSERT_NE(it, got.end()) << c.name << " lost var " << var;
      EXPECT_EQ(it->second.first, expected.first)
          << c.name << " status differs for var " << var;
      EXPECT_EQ(it->second.second, expected.second)
          << c.name << " object set differs for var " << var;
    }
  }
}

// ---- Zero allocations in the steady-state query loop ---------------------

TEST(FlatTablesEndToEnd, RepeatedBatchesAreAllocationFree) {
  const Workload w = medium_workload();
  cfl::ContextTable contexts;
  cfl::SolverOptions opts;
  opts.budget = 50'000;
  cfl::Solver solver(w.pag, contexts, /*store=*/nullptr, opts);

  cfl::QueryResult qr;
  std::vector<pag::NodeId> nodes;
  auto run_batch = [&] {
    for (const pag::NodeId q : w.queries) {
      solver.points_to(q, qr);
      qr.nodes_into(nodes);
    }
  };

  // Warm up: tables grow, slabs fill, scratch vectors reach their high-water
  // capacity. Two rounds so second-round growth (if any) also settles.
  run_batch();
  run_batch();

  const cfl::Solver::MemoryStats settled = solver.memory_stats();
  // The heap-match cache is part of the fingerprint: the batch must exercise
  // it for the checks below to cover it.
  EXPECT_GT(settled.heap_hit_lists, 0u);
  for (int round = 0; round < 3; ++round) {
    run_batch();
    const cfl::Solver::MemoryStats now = solver.memory_stats();
    EXPECT_EQ(now.table_rehashes, settled.table_rehashes)
        << "round " << round << ": a memo/result table grew mid-steady-state";
    EXPECT_EQ(now.slab_objects, settled.slab_objects)
        << "round " << round << ": slab allocated new entries";
    EXPECT_EQ(now.slab_bytes, settled.slab_bytes);
    EXPECT_EQ(now.frame_count, settled.frame_count);
    EXPECT_EQ(now.scratch_capacity_bytes, settled.scratch_capacity_bytes)
        << "round " << round << ": a pooled scratch vector reallocated";
    EXPECT_EQ(now.heap_hit_lists, settled.heap_hit_lists)
        << "round " << round << ": the heap-match cache built new entries";
    EXPECT_TRUE(now == settled);
  }
}

}  // namespace
}  // namespace parcfl
