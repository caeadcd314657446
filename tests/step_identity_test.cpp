// Step-identity regression: budget-exhausting ParCFL_DQ batches over Table-I
// programs, single-threaded, pinned to the exact statuses, object sets,
// charged/traversed steps and jmp counters the solver produced before its
// heap-match scans were memoised (DESIGN.md §6, "Heap-match cache").
//
// The cache must hand ReachableNodes the same (target, ctx) sequence the
// nested rescan of FlowsTo(o, c) produced: the per-invocation dedup, the
// recorded jmp costs, the traversal order and hence every counter depend on
// that order. The programs are taken where a budget-exhausting tail
// dominates (the regime the cache targets): out-of-budget aborts, early
// terminations through unfinished jmps, and fixpoint re-iteration that
// re-reads growing flows sets. tomcat also publishes and takes a finished
// jmp. One case runs the taint grammar, whose heap groups call the same
// ReachableNodes bodies.
//
// A mismatch prints the observed row in the table's own syntax; a change
// that moves these numbers on purpose must say why in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "parcfl.hpp"

namespace parcfl {
namespace {

struct Pinned {
  const char* program;
  double scale;
  std::uint64_t budget;
  cfl::QueryKind kind;
  // Expected totals and per-query digest.
  std::uint64_t queries;
  std::uint64_t out_of_budget;
  std::uint64_t early_terminations;
  std::uint64_t charged_steps;
  std::uint64_t traversed_steps;
  std::uint64_t jmps_added_finished;
  std::uint64_t jmps_added_unfinished;
  std::uint64_t jmps_suppressed;
  std::uint64_t jmps_taken;
  std::uint64_t fixpoint_iterations;
  std::uint64_t outcome_digest;  // FNV-1a over (var, status, charged, objects)
};

constexpr Pinned kPinned[] = {
    // program, scale, budget, kind,
    //   queries, out_of_budget, early_terminations, charged, traversed,
    //   finished jmps, unfinished jmps, suppressed, taken, fixpoint, digest
    {"fop", 2.0, 20'000, cfl::QueryKind::kPointsTo,
     2838, 224, 0, 4491361, 4491361, 0, 0, 512011, 0, 375, 0x83b4b2bcda8f057full},
    {"luindex", 2.0, 30'000, cfl::QueryKind::kPointsTo,
     664, 68, 0, 2042461, 2042461, 0, 0, 201123, 0, 95, 0x159f7b7334d26374ull},
    {"_202_jess", 2.0, 100'000, cfl::QueryKind::kPointsTo,
     768, 1, 38, 346942, 346942, 0, 166, 53265, 0, 60, 0x957ac1b8a627a9d7ull},
    {"_202_jess", 2.0, 30'000, cfl::QueryKind::kTaint,
     768, 94, 0, 2825722, 2825722, 0, 0, 404324, 0, 134, 0xe6edc2341ade4dd4ull},
    {"tomcat", 2.0, 100'000, cfl::QueryKind::kPointsTo,
     5323, 1, 502, 1070385, 1070385, 2, 477, 109445, 1, 243, 0x21ec7a1b62953a12ull},
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

const char* kind_name(cfl::QueryKind kind) {
  return kind == cfl::QueryKind::kTaint ? "kTaint" : "kPointsTo";
}

// Test listings name a case by its program, scale, budget and grammar, not
// by the struct's bytes.
void PrintTo(const Pinned& p, std::ostream* os) {
  *os << p.program << " scale " << p.scale << " budget " << p.budget << ' '
      << kind_name(p.kind);
}

class StepIdentity : public ::testing::TestWithParam<Pinned> {};

TEST_P(StepIdentity, BudgetExhaustingBatchMatchesPinnedSteps) {
  const Pinned& p = GetParam();
  const auto lowered = frontend::lower(synth::build_benchmark(p.program, p.scale));
  const auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<pag::NodeId> queries;
  for (const pag::NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  const std::vector<cfl::QueryKind> kinds(queries.size(), p.kind);

  cfl::EngineOptions o;
  o.mode = cfl::Mode::kDataSharingScheduling;
  o.threads = 1;
  o.solver.budget = p.budget;
  o.solver.tau_finished = 100;
  o.solver.tau_unfinished = 10'000;
  o.collect_objects = true;
  cfl::Engine engine(collapsed.pag, o);
  const cfl::EngineResult r = engine.run(queries, kinds);

  Fnv digest;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const cfl::QueryOutcome& q = r.outcomes[i];
    digest.add(q.var.value());
    digest.add(static_cast<std::uint64_t>(q.status));
    digest.add(q.charged_steps);
    digest.add(r.objects[i].size());
    for (const pag::NodeId n : r.objects[i]) digest.add(n.value());
  }

  const support::QueryCounters& t = r.totals;
  // The regime this suite exists for: a budget-exhausting tail.
  EXPECT_GT(t.out_of_budget + t.early_terminations, 0u);

  std::ostringstream row;
  row << "{\"" << p.program << "\", " << p.scale << ", " << p.budget
      << ", cfl::QueryKind::" << kind_name(p.kind) << ",\n     " << t.queries
      << ", " << t.out_of_budget << ", " << t.early_terminations << ", "
      << t.charged_steps << ", " << t.traversed_steps << ", "
      << t.jmps_added_finished << ", " << t.jmps_added_unfinished << ", "
      << t.jmps_suppressed << ", " << t.jmps_taken << ", "
      << t.fixpoint_iterations << ", 0x" << std::hex << digest.value()
      << "ull},";
  SCOPED_TRACE("observed row: " + row.str());

  EXPECT_EQ(t.queries, p.queries);
  EXPECT_EQ(t.out_of_budget, p.out_of_budget);
  EXPECT_EQ(t.early_terminations, p.early_terminations);
  EXPECT_EQ(t.charged_steps, p.charged_steps);
  EXPECT_EQ(t.traversed_steps, p.traversed_steps);
  EXPECT_EQ(t.jmps_added_finished, p.jmps_added_finished);
  EXPECT_EQ(t.jmps_added_unfinished, p.jmps_added_unfinished);
  EXPECT_EQ(t.jmps_suppressed, p.jmps_suppressed);
  EXPECT_EQ(t.jmps_taken, p.jmps_taken);
  EXPECT_EQ(t.fixpoint_iterations, p.fixpoint_iterations);
  EXPECT_EQ(digest.value(), p.outcome_digest)
      << "per-query status, charged steps or object sets moved";
}

std::string case_name(const ::testing::TestParamInfo<Pinned>& info) {
  std::string name = std::string(info.param.program) + "_" +
                     (info.param.kind == cfl::QueryKind::kTaint ? "taint" : "pts") +
                     "_b" + std::to_string(info.param.budget);
  std::replace(name.begin(), name.end(), '-', '_');
  name.erase(0, name.find_first_not_of('_'));
  return name;
}

INSTANTIATE_TEST_SUITE_P(TableI, StepIdentity, ::testing::ValuesIn(kPinned),
                         case_name);

}  // namespace
}  // namespace parcfl
