// `perfbench gen`: writes every input a workload needs, from --seed alone.
// The program under test receives only these files.
//
// What --seed decides, and what it does not:
//  * The Table-I programs are generated from their suite seeds, never from
//    --seed. A generator seed decides a program's regime: fop at scale 2 has
//    224 budget-exhausted queries at its suite seed and none at the three
//    other seeds tried, so per-seed programs would be a different workload
//    in every run.
//  * --seed decides the query order of every batch and every request
//    sequence: the Zipf draws, alias pairs and the order within a round.
//  * The serving layout is drawn with a constant seed (kLayoutSeed): the
//    flow requests, so the requests the flow-verb fault answers wrongly are
//    the same in every run; the popularity order of the roots and the delta
//    edge sets, which decide how much re-solving a run pays.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common.hpp"
#include "parcfl.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parcfl;

namespace {

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(support::Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

template <class T>
void shuffle(std::vector<T>& xs, support::Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i)
    std::swap(xs[i - 1], xs[rng.below(i)]);
}

void write_pag_file(const std::string& path, const pag::Pag& g) {
  std::ofstream out(path);
  pag::write_pag(out, g);
  if (!out.flush()) fail("short write to " + path);
}

int gen_batch(std::uint64_t seed, const std::string& dir) {
  support::Rng rng(seed);
  std::ostringstream list;
  for (const auto& spec : synth::table1_benchmarks()) {
    const auto program = synth::generate(synth::config_for(spec, kBatchScale));
    const auto lowered = frontend::lower(program);
    write_pag_file(dir + "/" + spec.name + ".pag", lowered.pag);
    std::vector<std::uint32_t> queries;
    for (const auto q : lowered.queries) queries.push_back(q.value());
    shuffle(queries, rng);
    std::ostringstream q;
    for (const auto v : queries) q << v << '\n';
    write_file(dir + "/" + spec.name + ".queries", q.str());
    list << spec.name << '\n';
  }
  write_file(dir + "/programs", list.str());
  return 0;
}

struct ServeProgram {
  pag::Pag pag;
  std::vector<std::uint32_t> roots;  // sorted distinct query variables
};

ServeProgram build_serve_program(double scale) {
  const auto program = synth::generate(
      synth::config_for(synth::benchmark_spec(kServeProgram), scale));
  const auto lowered = frontend::lower(program);
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  ServeProgram out{std::move(collapsed.pag), {}};
  for (const auto q : lowered.queries)
    out.roots.push_back(collapsed.representative[q.value()].value());
  std::sort(out.roots.begin(), out.roots.end());
  out.roots.erase(std::unique(out.roots.begin(), out.roots.end()),
                  out.roots.end());
  return out;
}

/// The fixed flow requests: kFlowTaint taint lines, then kFlowDepends
/// depends lines. Every other sink comes from the root's reach set on the
/// unreduced graph, so both verdicts occur.
struct FlowRequests {
  std::vector<std::string> taint, depends;
};

FlowRequests flow_requests(const ServeProgram& sp) {
  support::Rng rng(kLayoutSeed);
  cfl::ContextTable contexts;
  cfl::SolverOptions o;
  o.budget = kBudget;
  cfl::Solver solver(sp.pag, contexts, nullptr, o);
  FlowRequests out;
  for (const cfl::QueryKind kind : {cfl::QueryKind::kTaint,
                                    cfl::QueryKind::kDepends}) {
    std::vector<std::uint32_t> pool = sp.roots;
    shuffle(pool, rng);
    const bool taint = kind == cfl::QueryKind::kTaint;
    const auto& table = taint ? cfl::taint_table() : cfl::depends_table();
    const unsigned count = taint ? kFlowTaint : kFlowDepends;
    for (unsigned i = 0; i < count; ++i) {
      const std::uint32_t root = pool[i];
      std::uint32_t sink = sp.roots[rng.below(sp.roots.size())];
      if (i % 2 == 0) {
        std::vector<std::uint32_t> reach;
        for (const auto n : solver.reach(pag::NodeId(root), table).nodes())
          if (n.value() != root && sp.pag.is_variable(n))
            reach.push_back(n.value());
        std::sort(reach.begin(), reach.end());
        if (!reach.empty()) sink = reach[rng.below(reach.size())];
      }
      (taint ? out.taint : out.depends)
          .push_back(std::string(cfl::to_string(kind)) + " " +
                     std::to_string(root) + " " + std::to_string(sink));
    }
  }
  return out;
}

/// Block `b` of a round: Zipf-drawn `query` and `alias` lines over the
/// ranked roots plus the round's b-th share of the fixed flow requests.
std::vector<std::string> block(const std::vector<std::uint32_t>& ranked,
                               const Zipf& zipf, support::Rng& rng,
                               const FlowRequests& flows, unsigned b) {
  std::vector<std::string> out;
  for (unsigned i = 0; i < kBlockQueries; ++i)
    out.push_back("query " + std::to_string(ranked[zipf.draw(rng)]));
  for (unsigned i = 0; i < kBlockAlias; ++i)
    out.push_back("alias " + std::to_string(ranked[zipf.draw(rng)]) + " " +
                  std::to_string(ranked[zipf.draw(rng)]));
  out.insert(out.end(), flows.taint.begin() + b * kBlockTaint,
             flows.taint.begin() + (b + 1) * kBlockTaint);
  out.insert(out.end(), flows.depends.begin() + b * kBlockDepends,
             flows.depends.begin() + (b + 1) * kBlockDepends);
  return out;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + '\n';
  return out;
}

/// Edge sets for serve-churn: each holds kDeltaAssignEdges local assignments
/// inside one method and kDeltaNewEdges allocations to existing roots, all
/// absent from the base graph and from each other.
std::vector<std::vector<pag::Edge>> delta_sets(const ServeProgram& sp,
                                               support::Rng& rng) {
  const pag::Pag& g = sp.pag;
  std::vector<std::uint32_t> objects;
  for (std::uint32_t n = 0; n < g.node_count(); ++n)
    if (g.is_object(pag::NodeId(n))) objects.push_back(n);
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> used;
  auto exists = [&](pag::EdgeKind k, std::uint32_t dst, std::uint32_t src) {
    if (used.count({static_cast<int>(k), dst, src})) return true;
    for (const auto& e : g.out_edges(pag::NodeId(src), k))
      if (e.other.value() == dst) return true;
    return false;
  };
  std::vector<std::vector<pag::Edge>> sets(kDeltaSets);
  for (auto& set : sets) {
    while (set.size() < kDeltaAssignEdges) {
      const std::uint32_t src = sp.roots[rng.below(sp.roots.size())];
      const auto method = g.node(pag::NodeId(src)).method;
      std::vector<std::uint32_t> peers;
      for (const std::uint32_t r : sp.roots)
        if (r != src && g.node(pag::NodeId(r)).method == method &&
            g.kind(pag::NodeId(r)) == pag::NodeKind::kLocal)
          peers.push_back(r);
      if (peers.empty() || g.kind(pag::NodeId(src)) != pag::NodeKind::kLocal)
        continue;
      const std::uint32_t dst = peers[rng.below(peers.size())];
      if (exists(pag::EdgeKind::kAssignLocal, dst, src)) continue;
      used.insert({static_cast<int>(pag::EdgeKind::kAssignLocal), dst, src});
      set.push_back(pag::Edge{pag::EdgeKind::kAssignLocal, pag::NodeId(dst),
                              pag::NodeId(src), 0});
    }
    for (unsigned added = 0; added < kDeltaNewEdges;) {
      const std::uint32_t obj = objects[rng.below(objects.size())];
      const std::uint32_t dst = sp.roots[rng.below(sp.roots.size())];
      if (exists(pag::EdgeKind::kNew, dst, obj)) continue;
      used.insert({static_cast<int>(pag::EdgeKind::kNew), dst, obj});
      set.push_back(
          pag::Edge{pag::EdgeKind::kNew, pag::NodeId(dst), pag::NodeId(obj), 0});
      ++added;
    }
  }
  return sets;
}

int gen_serving(const std::string& workload, std::uint64_t seed,
                const std::string& dir) {
  const ServeProgram sp = build_serve_program(
      workload == "serve-hot" ? kHotScale : kChurnScale);
  write_pag_file(dir + "/serve.pag", sp.pag);
  {
    std::ostringstream r;
    for (const auto v : sp.roots) r << v << '\n';
    write_file(dir + "/roots", r.str());
  }
  const FlowRequests flows = flow_requests(sp);

  support::Rng layout(kLayoutSeed + 1);
  std::vector<std::uint32_t> ranked = sp.roots;
  shuffle(ranked, layout);
  const Zipf zipf(ranked.size(), kZipfSkew);
  support::Rng rng(seed);

  // A schedule is a list of rounds; every round holds the same number of
  // each operation kind, and runs always finish the round they are in.
  std::string schedule;
  if (workload == "serve-hot") {
    for (unsigned r = 0; r < kScheduleRounds; ++r) {
      std::vector<std::string> round;
      for (unsigned b = 0; b < kRoundBlocks; ++b) {
        const auto lines = block(ranked, zipf, rng, flows, b);
        round.insert(round.end(), lines.begin(), lines.end());
      }
      shuffle(round, rng);
      schedule += "round\n" + join_lines(round);
    }
  } else {
    const auto sets = delta_sets(sp, layout);
    auto write = [&](const std::string& name, const std::vector<pag::Edge>* del,
                     const std::vector<pag::Edge>& add) {
      pag::Delta d(sp.pag);
      for (const auto& e : add) d.add_edge(e.kind, e.dst, e.src, e.aux);
      if (del)
        for (const auto& e : *del) d.remove_edge(e.kind, e.dst, e.src, e.aux);
      std::ofstream out(dir + "/" + name);
      pag::write_delta(out, d);
      if (!out.flush()) fail("short write of " + name);
    };
    write("init.delta", nullptr, sets.back());
    for (unsigned i = 0; i < kDeltaSets; ++i)
      write("swap_" + std::to_string(i) + ".delta",
            &sets[(i + kDeltaSets - 1) % kDeltaSets], sets[i]);
    for (unsigned r = 0; r < kScheduleRounds; ++r) {
      schedule += "round\n";
      for (unsigned cycle = 0; cycle < kRoundBlocks; ++cycle) {
        std::vector<std::string> window = block(ranked, zipf, rng, flows, cycle);
        shuffle(window, rng);
        schedule += "update swap_" + std::to_string(cycle % kDeltaSets) +
                    ".delta\n" + join_lines(window);
      }
    }
  }
  write_file(dir + "/schedule", schedule);
  return 0;
}

}  // namespace

int generate_inputs(const std::string& workload, std::uint64_t seed,
                    const std::string& dir) {
  std::filesystem::create_directories(dir);
  if (workload == "batch-table1") return gen_batch(seed, dir);
  if (workload == "serve-hot" || workload == "serve-churn")
    return gen_serving(workload, seed, dir);
  fail("unknown workload " + workload);
}

}  // namespace perfbench
