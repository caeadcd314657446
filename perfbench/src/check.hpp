#pragma once
// Independent answer checks, run after every timed region ends.
//
// GraphRefs holds the references for one graph revision:
//  * oracle::ExactOracle — a naive global fixpoint that shares none of the
//    solver's machinery; every complete `query` answer must equal it and
//    every partial one must be a subset of it;
//  * andersen::solve — the context-insensitive superset every answer must
//    stay inside;
//  * cold single-thread solves on the *unreduced* graph (no jmp store, no
//    index, no prefilter) for the flow verbs and for judging `unknown`
//    verdicts; flow answers are also checked against taint/depends duality;
//  * a cold single-thread solve on the *reduced* graph the service serves
//    (pag::reduce_unmatched_parens, same node ids), which alone may label a
//    wrong flow verdict as the known reduction fault.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "andersen/andersen.hpp"
#include "cfl/context.hpp"
#include "cfl/grammar.hpp"
#include "cfl/solver.hpp"
#include "oracle/oracle.hpp"
#include "pag/pag.hpp"
#include "pag/reduce.hpp"

namespace perfbench {

enum class Verdict {
  kOk,
  /// A flow verb answered clean/independent where the unreduced graph has
  /// the flow, and a cold solve on the reduced serving graph gives the same
  /// wrong verdict: the reduction drops the flow, not the service. Counted as
  /// failed; every other mismatch is kWrong.
  kKnownFault,
  kWrong,
};

class GraphRefs {
 public:
  explicit GraphRefs(const parcfl::pag::Pag& pag);

  /// `objects` sorted; `status` as the program reported it.
  Verdict check_query(std::uint32_t var, parcfl::cfl::QueryStatus status,
                      const std::vector<std::uint32_t>& objects,
                      std::string* why);
  Verdict check_alias(std::uint32_t a, std::uint32_t b,
                      parcfl::cfl::Solver::AliasAnswer answer,
                      std::string* why);
  /// taint(a, b) or depends(a, b), answered may (flow) / no / unknown.
  Verdict check_flow(parcfl::cfl::QueryKind kind, std::uint32_t a,
                     std::uint32_t b, parcfl::cfl::Solver::AliasAnswer answer,
                     std::string* why);

 private:
  /// Which cold single-thread solve a reach set comes from: the unreduced
  /// graph under kReferenceBudget (exact), the unreduced graph under the
  /// serving budget (only its completeness is used: it judges `unknown`
  /// verdicts), or the reduced serving graph under kReferenceBudget.
  enum class Ref { kExact, kBounded, kReduced };
  struct Reach {
    std::vector<std::uint32_t> nodes;  // sorted
    bool complete = true;
  };
  const Reach& reach(parcfl::cfl::QueryKind kind, std::uint32_t root,
                     Ref ref = Ref::kExact);
  bool cold_complete(std::uint32_t var);
  const std::vector<std::uint32_t>& oracle_pts(std::uint32_t var);

  parcfl::oracle::ExactOracle oracle_;
  parcfl::andersen::AndersenResult andersen_;
  parcfl::cfl::ContextTable contexts_;
  std::unique_ptr<parcfl::cfl::Solver> solver_;  // cold, no sharing, kBudget
  std::unique_ptr<parcfl::cfl::Solver> exact_;   // cold, kReferenceBudget
  const parcfl::pag::Pag& pag_;
  /// The reduced serving graph and its exact solver, built on first use.
  std::optional<parcfl::pag::Pag> reduced_;
  parcfl::cfl::ContextTable reduced_contexts_;
  std::unique_ptr<parcfl::cfl::Solver> reduced_exact_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> oracle_cache_;
  std::map<std::uint32_t, bool> cold_cache_;
  std::map<std::uint64_t, Reach> reach_cache_;
};

}  // namespace perfbench
