#include "check.hpp"

#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

using parcfl::cfl::QueryKind;
using parcfl::cfl::QueryStatus;
using AliasAnswer = parcfl::cfl::Solver::AliasAnswer;

namespace {

/// Budget of the exact flow references: far above any flow on the serving
/// programs, so the reference completes where the serving budget cannot.
constexpr std::uint64_t kReferenceBudget = 1'000'000'000;

parcfl::cfl::SolverOptions cold_options(std::uint64_t budget) {
  parcfl::cfl::SolverOptions o;
  o.budget = budget;
  o.data_sharing = false;
  return o;
}

bool is_subset(const std::vector<std::uint32_t>& sub,
               std::span<const std::uint32_t> super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool intersects(const std::vector<std::uint32_t>& x,
                const std::vector<std::uint32_t>& y) {
  auto i = x.begin();
  auto j = y.begin();
  while (i != x.end() && j != y.end()) {
    if (*i == *j) return true;
    if (*i < *j) ++i; else ++j;
  }
  return false;
}

const char* answer_name(AliasAnswer a) {
  return a == AliasAnswer::kMay ? "may" : a == AliasAnswer::kNo ? "no" : "unknown";
}

std::string show(const std::vector<std::uint32_t>& ids) {
  std::string out = "{";
  for (std::size_t i = 0; i < ids.size() && i < 12; ++i)
    out += (i ? "," : "") + std::to_string(ids[i]);
  if (ids.size() > 12) out += ",...";
  return out + "}";
}

}  // namespace

GraphRefs::GraphRefs(const parcfl::pag::Pag& pag)
    : oracle_(pag),
      andersen_(parcfl::andersen::solve(pag)),
      solver_(std::make_unique<parcfl::cfl::Solver>(pag, contexts_, nullptr,
                                                    cold_options(kBudget))),
      exact_(std::make_unique<parcfl::cfl::Solver>(
          pag, contexts_, nullptr, cold_options(kReferenceBudget))),
      pag_(pag) {}

const std::vector<std::uint32_t>& GraphRefs::oracle_pts(std::uint32_t var) {
  auto it = oracle_cache_.find(var);
  if (it == oracle_cache_.end())
    it = oracle_cache_.emplace(var, oracle_.points_to(parcfl::pag::NodeId(var)))
             .first;
  return it->second;
}

bool GraphRefs::cold_complete(std::uint32_t var) {
  auto it = cold_cache_.find(var);
  if (it == cold_cache_.end()) {
    const auto r = solver_->points_to(parcfl::pag::NodeId(var));
    it = cold_cache_.emplace(var, r.complete()).first;
  }
  return it->second;
}

const GraphRefs::Reach& GraphRefs::reach(QueryKind kind, std::uint32_t root,
                                         Ref ref) {
  const std::uint64_t key = (static_cast<std::uint64_t>(ref) << 40) |
                            (static_cast<std::uint64_t>(kind) << 32) | root;
  auto it = reach_cache_.find(key);
  if (it != reach_cache_.end()) return it->second;
  if (ref == Ref::kReduced && !reduced_exact_) {
    reduced_.emplace(parcfl::pag::reduce_unmatched_parens(pag_));
    reduced_exact_ = std::make_unique<parcfl::cfl::Solver>(
        *reduced_, reduced_contexts_, nullptr, cold_options(kReferenceBudget));
  }
  parcfl::cfl::Solver& solver = ref == Ref::kExact     ? *exact_
                                : ref == Ref::kBounded ? *solver_
                                                       : *reduced_exact_;
  const auto& table = kind == QueryKind::kTaint ? parcfl::cfl::taint_table()
                                                : parcfl::cfl::depends_table();
  const auto r = solver.reach(parcfl::pag::NodeId(root), table);
  Reach out;
  out.complete = r.complete();
  for (const auto n : r.nodes()) out.nodes.push_back(n.value());
  std::sort(out.nodes.begin(), out.nodes.end());
  return reach_cache_.emplace(key, std::move(out)).first->second;
}

Verdict GraphRefs::check_query(std::uint32_t var, QueryStatus status,
                               const std::vector<std::uint32_t>& objects,
                               std::string* why) {
  const auto& expected = oracle_pts(var);
  if (!is_subset(objects, andersen_.points_to(parcfl::pag::NodeId(var)))) {
    *why = "query v" + std::to_string(var) + " " + show(objects) +
           " not within Andersen";
    return Verdict::kWrong;
  }
  if (status == QueryStatus::kComplete ? objects != expected
                                       : !is_subset(objects, expected)) {
    *why = "query v" + std::to_string(var) + " answered " + show(objects) +
           (status == QueryStatus::kComplete ? " (complete)" : " (partial)") +
           ", oracle " + show(expected);
    return Verdict::kWrong;
  }
  return Verdict::kOk;
}

Verdict GraphRefs::check_alias(std::uint32_t a, std::uint32_t b,
                               AliasAnswer answer, std::string* why) {
  const bool overlap = intersects(oracle_pts(a), oracle_pts(b));
  bool ok = false;
  switch (answer) {
    case AliasAnswer::kNo: ok = !overlap; break;
    case AliasAnswer::kMay: ok = overlap; break;
    // A non-answer is right only where a cold solve of a side cannot finish.
    case AliasAnswer::kUnknown: ok = !cold_complete(a) || !cold_complete(b); break;
  }
  if (ok) return Verdict::kOk;
  *why = "alias v" + std::to_string(a) + " v" + std::to_string(b) +
         " answered " + answer_name(answer) + ", oracle sets " +
         (overlap ? "overlap" : "are disjoint");
  return Verdict::kWrong;
}

Verdict GraphRefs::check_flow(QueryKind kind, std::uint32_t a, std::uint32_t b,
                              AliasAnswer answer, std::string* why) {
  const Reach& fwd = reach(kind, a);
  const bool hit = std::binary_search(fwd.nodes.begin(), fwd.nodes.end(), b);
  // Duality: taint(a, b) holds iff depends(b, a) does.
  const QueryKind dual_kind =
      kind == QueryKind::kTaint ? QueryKind::kDepends : QueryKind::kTaint;
  const Reach& dual = reach(dual_kind, b);
  const bool dual_hit =
      std::binary_search(dual.nodes.begin(), dual.nodes.end(), a);
  const std::string name = std::string(parcfl::cfl::to_string(kind)) + " v" +
                           std::to_string(a) + " v" + std::to_string(b);
  if (!fwd.complete || !dual.complete) {
    *why = name + ": reference did not complete";
    return Verdict::kWrong;
  }
  if (hit != dual_hit) {
    *why = name + ": reference violates taint/depends duality";
    return Verdict::kWrong;
  }
  bool ok = false;
  switch (answer) {
    case AliasAnswer::kMay: ok = hit; break;
    case AliasAnswer::kNo: ok = !hit; break;
    case AliasAnswer::kUnknown:
      ok = !reach(kind, a, Ref::kBounded).complete;
      break;
  }
  if (ok) return Verdict::kOk;
  *why = name + " answered " + answer_name(answer) + ", unreduced graph " +
         (hit ? "has" : "lacks") + " the flow";
  if (!hit || answer != AliasAnswer::kNo) return Verdict::kWrong;
  // The known fault is the reduction dropping the flow: only a verdict that
  // a cold solve on the reduced serving graph repeats is labelled so.
  const Reach& on_reduced = reach(kind, a, Ref::kReduced);
  const bool reduced_hit = std::binary_search(on_reduced.nodes.begin(),
                                              on_reduced.nodes.end(), b);
  if (!on_reduced.complete || reduced_hit) {
    *why += on_reduced.complete ? "; so does the reduced graph"
                                : "; reduced-graph reference did not complete";
    return Verdict::kWrong;
  }
  *why += "; reduced graph lacks it too";
  return Verdict::kKnownFault;
}

}  // namespace perfbench
