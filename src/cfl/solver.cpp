#include "cfl/solver.hpp"

#include <algorithm>

#include "cfl/grammar.hpp"
#include "support/check.hpp"

namespace parcfl::cfl {

using pag::EdgeKind;
using pag::HalfEdge;
using pag::NodeId;

std::vector<NodeId> QueryResult::nodes() const {
  std::vector<NodeId> out;
  nodes_into(out);
  return out;
}

void QueryResult::nodes_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(tuples.size());
  for (const PtPair& t : tuples) out.push_back(t.node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool QueryResult::contains(NodeId n) const {
  for (const PtPair& t : tuples)
    if (t.node == n) return true;
  return false;
}

Solver::Solver(const pag::Pag& pag, ContextTable& contexts, JmpStore* store,
               const SolverOptions& options)
    : pag_(pag), contexts_(contexts), store_(store), options_(options),
      budget_limit_(options.budget) {
  if (options_.data_sharing)
    PARCFL_CHECK_MSG(store_ != nullptr, "data sharing requires a JmpStore");
}

QueryResult Solver::points_to(NodeId l) {
  QueryResult out;
  points_to(l, out);
  return out;
}

QueryResult Solver::flows_to(NodeId o) {
  QueryResult out;
  flows_to(o, out);
  return out;
}

void Solver::points_to(NodeId l, QueryResult& out) {
  PARCFL_CHECK_MSG(pag_.is_variable(l), "points_to takes a variable node");
  run_query(l, Direction::kBackward, out);
}

void Solver::flows_to(NodeId o, QueryResult& out) {
  PARCFL_CHECK_MSG(pag_.is_object(o), "flows_to takes an object node");
  run_query(o, Direction::kForward, out);
}

Solver::Key Solver::generic_key(std::uint32_t state, NodeId n, CtxId c) {
  PARCFL_DCHECK(state < GrammarTable::kMaxStates);
  PARCFL_DCHECK(n.value() < (1u << 31) && c.value() < (1u << 31));
  return (static_cast<std::uint64_t>(state) << 62) |
         (static_cast<std::uint64_t>(n.value()) << 31) | c.value();
}

QueryResult Solver::reach(NodeId root, const GrammarTable& table) {
  QueryResult out;
  reach(root, table, out);
  return out;
}

void Solver::reach(NodeId root, const GrammarTable& table, QueryResult& out) {
  PARCFL_CHECK_MSG(partition_ == nullptr,
                   "generic-grammar queries are unsupported on partitioned "
                   "workers (the router rejects them upstream)");
  PARCFL_CHECK_MSG(!table.root_is_variable || pag_.is_variable(root),
                   "grammar query root must be a variable node");
  grammar_ = &table;
  run_query(root, table.direction, out);
  grammar_ = nullptr;
}

const char* Solver::to_string(Via via) {
  switch (via) {
    case Via::kQueryRoot: return "query";
    case Via::kNew: return "new";
    case Via::kAssignLocal: return "assign";
    case Via::kAssignGlobal: return "global";
    case Via::kParam: return "param";
    case Via::kRet: return "ret";
    case Via::kHeapMatch: return "heap-match";
  }
  return "?";
}

Solver::Frame& Solver::frame_at(std::uint32_t depth) {
  while (frames_.size() <= depth) frames_.push_back(std::make_unique<Frame>());
  return *frames_[depth];
}

Solver::MemoEntry& Solver::memo_entry(support::FlatMap<std::uint32_t>& memo,
                                      Key key) {
  const auto slot = memo.try_emplace(key);
  if (!slot.inserted) return memo_slab_[slot.value];
  const auto [index, entry] = memo_slab_.acquire();
  entry->reset();  // recycled entries keep their buffers, not their contents
  entry->index = index;
  slot.value = index;
  return *entry;
}

const std::vector<PtPair>& Solver::heap_hits(const MemoEntry& aliased,
                                             std::uint32_t f, Direction dir) {
  PARCFL_DCHECK(f < (1u << 31));
  const std::uint64_t key = (static_cast<std::uint64_t>(aliased.index) << 32) |
                            (static_cast<std::uint64_t>(f) << 1) |
                            (dir == Direction::kForward ? 1u : 0u);
  const auto slot = heap_hits_map_.try_emplace(key);
  if (slot.inserted) {
    const auto [index, fresh] = heap_hits_slab_.acquire();
    fresh->scanned = 0;
    fresh->hits.clear();
    slot.value = index;
  }
  HeapHits& cached = heap_hits_slab_[slot.value];
  // Memo sets are append-only within a query (demoted entries keep their
  // items; the slab is rewound only in run_query), so scanning the new suffix
  // extends the hit list exactly as a full rescan would have.
  const std::vector<PtPair>& items = aliased.set.items;
  const std::size_t end = items.size();
  for (std::size_t i = cached.scanned; i < end; ++i) {
    const PtPair v = items[i];
    const std::span<const HalfEdge> edges =
        dir == Direction::kBackward ? pag_.in_edges(v.node, EdgeKind::kStore)
                                    : pag_.out_edges(v.node, EdgeKind::kLoad);
    for (const HalfEdge e : edges)
      if (e.aux == f) cached.hits.push_back(PtPair{e.other, v.ctx});
  }
  cached.scanned = static_cast<std::uint32_t>(end);
  return cached.hits;
}

Solver::PendingJmp& Solver::pending_for(std::uint64_t jmp_key) {
  const auto slot = pending_map_.try_emplace(jmp_key);
  if (slot.inserted) {
    const auto [index, pending] = pending_slab_.acquire();
    slot.value = index;
    pending->key = jmp_key;
    pending->max_cost = 0;
    pending->iteration = 0;
    pending->published = false;
    pending->targets.clear();
    return *pending;
  }
  PendingJmp& pending = pending_slab_[slot.value];
  if (pending.published) {
    // The entry was "erased" on publication; recreate it fresh.
    pending.max_cost = 0;
    pending.iteration = 0;
    pending.published = false;
    pending.targets.clear();
  }
  return pending;
}

Solver::MemoryStats Solver::memory_stats() const {
  MemoryStats m;
  m.table_rehashes = pts_memo_.rehash_count() + flows_memo_.rehash_count() +
                     generic_memo_.rehash_count() + pending_map_.rehash_count() +
                     heap_hits_map_.rehash_count() +
                     consumed_jmp_keys_.rehash_count() +
                     witness_pred_.rehash_count() + witness_obj_.rehash_count();
  memo_slab_.for_each_constructed([&](const MemoEntry& e) {
    m.table_rehashes += e.set.present.rehash_count();
    m.scratch_capacity_bytes += e.set.items.capacity() * sizeof(PtPair);
  });
  pending_slab_.for_each_constructed([&](const PendingJmp& p) {
    m.scratch_capacity_bytes += p.targets.capacity() * sizeof(JmpTarget);
  });
  heap_hits_slab_.for_each_constructed([&](const HeapHits& h) {
    m.scratch_capacity_bytes += h.hits.capacity() * sizeof(PtPair);
  });
  for (const auto& frame : frames_) {
    m.table_rehashes += frame->visited.rehash_count() +
                        frame->rn_dedup.rehash_count() +
                        frame->rn_out.present.rehash_count();
    m.scratch_capacity_bytes +=
        frame->work.capacity() * sizeof(PtPair) +
        frame->work_state.capacity() +
        frame->rn_found.capacity() * sizeof(JmpTarget) +
        frame->rn_out.items.capacity() * sizeof(PtPair);
  }
  m.heap_hit_lists = heap_hits_slab_.constructed();
  m.slab_objects = memo_slab_.constructed() + pending_slab_.constructed() +
                   m.heap_hit_lists;
  m.slab_bytes = memo_slab_.arena_bytes() + pending_slab_.arena_bytes() +
                 heap_hits_slab_.arena_bytes();
  m.frame_count = frames_.size();
  m.scratch_capacity_bytes += sharing_stack_.capacity() * sizeof(SharingFrame);
  m.scratch_capacity_bytes +=
      pub_finished_.capacity() * sizeof(BufferedFinished) +
      pub_unfinished_.capacity() * sizeof(BufferedUnfinished) +
      pub_targets_.capacity() * sizeof(JmpTarget);
  return m;
}

std::vector<Solver::WitnessStep> Solver::explain_points_to(NodeId var,
                                                           NodeId object) {
  witness_pred_.clear();
  witness_obj_.clear();
  recording_witness_ = true;
  QueryResult result;
  run_query(var, Direction::kBackward, result);
  recording_witness_ = false;
  (void)result;

  // The fact may have been discovered under any context: take the first.
  Key obj_key = 0;
  const WitnessPred* obj_pred = nullptr;
  witness_obj_.for_each([&](Key key, WitnessPred& pred) {
    if (obj_pred == nullptr &&
        static_cast<std::uint32_t>(key >> 32) == object.value()) {
      obj_key = key;
      obj_pred = &pred;
    }
  });
  if (obj_pred == nullptr) return {};

  // Walk the predecessor chain back to the query root, then reverse.
  std::vector<WitnessStep> chain;
  chain.push_back(WitnessStep{
      PtPair{object, CtxId(static_cast<std::uint32_t>(obj_key))}, Via::kNew});
  Key cur = obj_pred->from;
  for (;;) {
    const PtPair config{NodeId(static_cast<std::uint32_t>(cur >> 32)),
                        CtxId(static_cast<std::uint32_t>(cur))};
    const WitnessPred* pred = witness_pred_.find(cur);
    PARCFL_CHECK_MSG(pred != nullptr, "broken witness chain");
    chain.push_back(WitnessStep{config, pred->via});
    if (pred->via == Via::kQueryRoot) break;
    cur = pred->from;
  }
  std::reverse(chain.begin(), chain.end());
  witness_pred_.clear();
  witness_obj_.clear();
  return chain;
}

Solver::AliasAnswer Solver::may_alias(NodeId v1, NodeId v2) {
  const QueryResult r1 = points_to(v1);
  const QueryResult r2 = points_to(v2);
  const std::vector<NodeId> o1 = r1.nodes();
  const std::vector<NodeId> o2 = r2.nodes();
  std::vector<NodeId> common;
  std::set_intersection(o1.begin(), o1.end(), o2.begin(), o2.end(),
                        std::back_inserter(common));
  if (!common.empty()) return AliasAnswer::kMay;
  if (r1.complete() && r2.complete()) return AliasAnswer::kNo;
  return AliasAnswer::kUnknown;
}

void Solver::take_escapes(std::vector<EscapeRecord>& out) {
  std::sort(escapes_.begin(), escapes_.end());
  escapes_.erase(std::unique(escapes_.begin(), escapes_.end()), escapes_.end());
  out = std::move(escapes_);
  escapes_.clear();
}

void Solver::seed_entry(MemoEntry& entry, Key key, Direction dir) {
  if (seeds_ == nullptr) return;
  const std::vector<PtPair>* facts = seeds_->find(dir, key);
  if (facts == nullptr) return;
  // Consuming a cross-partition fact makes this query's derived sets
  // partition-dependent: publication is off from here on.
  partition_dirty_ = true;
  for (const PtPair& t : *facts)
    if (entry.set.add(t.node, t.ctx)) ++seeded_tuples_;
}

void Solver::publish_finished(std::uint64_t jmp_key, std::uint64_t cost,
                              const JmpTarget* data, std::size_t n) {
  if (partition_dirty_) {
    // The target set may mix full-graph facts (seeds) with partition-local
    // traversal; only fully local computations are store-exact.
    ++counters_.jmps_suppressed;
    return;
  }
  const auto cost32 =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cost, UINT32_MAX));
  if (trace_jmp_events())
    trace_->emit(obs::TraceEvent::kJmpPublishFinished, jmp_key, cost32);
  if (options_.batched_publication) {
    const auto begin = static_cast<std::uint32_t>(pub_targets_.size());
    pub_targets_.insert(pub_targets_.end(), data, data + n);
    pub_finished_.push_back(BufferedFinished{
        jmp_key, cost32, begin, static_cast<std::uint32_t>(pub_targets_.size())});
    return;
  }
  if (store_->insert_finished(jmp_key, cost32, {data, data + n}))
    counters_.jmps_added_finished += n;
}

void Solver::publish_unfinished(std::uint64_t jmp_key, std::uint32_t s) {
  if (partition_dirty_) {
    ++counters_.jmps_suppressed;
    return;
  }
  if (trace_jmp_events())
    trace_->emit(obs::TraceEvent::kJmpPublishUnfinished, jmp_key, s);
  if (options_.batched_publication) {
    pub_unfinished_.push_back(BufferedUnfinished{jmp_key, s});
    return;
  }
  if (store_->insert_unfinished(jmp_key, s)) ++counters_.jmps_added_unfinished;
}

void Solver::flush_publications() {
  if (store_ == nullptr) return;
  if (partition_dirty_) {
    // Entries buffered before the query went dirty were computed cleanly,
    // but dropping the whole batch keeps the invariant simple; the local
    // recompute next time is what mints them.
    counters_.jmps_suppressed += pub_finished_.size() + pub_unfinished_.size();
    pub_finished_.clear();
    pub_unfinished_.clear();
    pub_targets_.clear();
    return;
  }
  for (const BufferedFinished& f : pub_finished_) {
    if (store_->insert_finished(
            f.key, f.cost,
            {pub_targets_.begin() + f.begin, pub_targets_.begin() + f.end}))
      counters_.jmps_added_finished += f.end - f.begin;
  }
  for (const BufferedUnfinished& u : pub_unfinished_) {
    if (store_->insert_unfinished(u.key, u.s)) ++counters_.jmps_added_unfinished;
  }
  pub_finished_.clear();
  pub_unfinished_.clear();
  pub_targets_.clear();
}

void Solver::out_of_budget(std::uint64_t bdg, bool early) {
  // Alg. 2 OUTOFBUDGET (lines 23-25): for every active ReachableNodes frame
  // (x, c) entered at s0 charged steps, the analysis reached the aborting
  // node in charged - s0 further steps, so a traversal arriving at (x, c)
  // with less than min(B, BDG + charged - s0) remaining budget is doomed.
  if (options_.data_sharing && store_ != nullptr) {
    for (const SharingFrame& frame : sharing_stack_) {
      const std::uint64_t s =
          std::min<std::uint64_t>(budget_limit_, bdg + charged_ - frame.s0);
      if (s >= options_.tau_unfinished) {
        publish_unfinished(frame.jmp_key, static_cast<std::uint32_t>(s));
      } else {
        ++counters_.jmps_suppressed;
      }
    }
  }
  throw OutOfBudgetEx{early};
}

template <class ComputeFn>
void Solver::reachable_nodes(Direction dir, NodeId x, CtxId c, ResultSet& out,
                             ComputeFn&& compute) {
  const bool sharing =
      options_.data_sharing && store_ != nullptr &&
      (dir == Direction::kBackward || options_.share_forward);

  std::uint64_t jmp_key = 0;
  if (sharing) {
    jmp_key = JmpStore::key(dir, x, c);
    ++counters_.jmp_lookups;
    JmpStore::Lookup lk;
    if (store_->lookup(jmp_key, lk)) {
      // Fig. 3(b): an unfinished jmp(s) warns that s more steps are needed
      // from here; terminate early if the remaining budget cannot cover it.
      if (lk.unfinished_s != 0 &&
          budget_limit_ - std::min(charged_, budget_limit_) < lk.unfinished_s) {
        ++counters_.early_terminations;
        if (trace_jmp_events())
          trace_->emit(obs::TraceEvent::kEarlyTermination, jmp_key,
                       lk.unfinished_s);
        // The recorded s proves this query would have exhausted its budget:
        // everything between here and B is traversal the jmp edge avoided.
        saved_ += budget_limit_ - std::min(charged_, budget_limit_);
        out_of_budget(lk.unfinished_s, /*early=*/true);
      }
      // Fig. 3(a): take the shortcuts. The full traversal cost is charged to
      // the budget (once per query — repeats against warm memos are free in
      // the unshared run too) but nothing is walked.
      if (lk.finished != nullptr) {
        if (consumed_jmp_keys_.insert(jmp_key)) {
          if (options_.charge_jmp_costs) charged_ += lk.finished->cost;
          saved_ += lk.finished->cost;
          ++counters_.jmps_taken;
        }
        if (trace_jmp_events())
          trace_->emit(obs::TraceEvent::kJmpHit, jmp_key, lk.finished->cost);
        for (const JmpTarget& t : lk.finished->targets) out.add(t.node, t.ctx);
        return;
      }
    }
    if (trace_jmp_events()) trace_->emit(obs::TraceEvent::kJmpMiss, jmp_key);
  }

  const std::uint64_t s0 = charged_;
  if (sharing) sharing_stack_.push_back(SharingFrame{jmp_key, s0});

  // Taint bookkeeping: we need to know whether *this* ReachableNodes body
  // consumed any partial (cyclic) result — only untainted, hence complete,
  // target sets may be published to the shared store.
  const bool outer_taint = taint_flag_;
  taint_flag_ = false;

  // Pooled scratch: the one ReachableNodes active at this compute depth owns
  // the frame's rn_found / rn_dedup; nested sub-queries use deeper frames.
  Frame& frame = frame_at(recursion_depth_);
  std::vector<JmpTarget>& found = frame.rn_found;
  found.clear();
  frame.rn_dedup.clear();
  compute(found, frame.rn_dedup, s0);

  const bool rn_tainted = taint_flag_;
  taint_flag_ = rn_tainted || outer_taint;

  if (sharing) sharing_stack_.pop_back();

  for (const JmpTarget& t : found) out.add(t.node, t.ctx);

  if (sharing) {
    const std::uint64_t cost = charged_ - s0;
    if (!rn_tainted) {
      // Complete right now: publish immediately (Alg. 2 line 20). A warm
      // recompute may be cheap even though the cold first pass was not; keep
      // the max as the representative cost.
      std::uint64_t effective_cost = cost;
      if (std::uint32_t* pending_index = pending_map_.find(jmp_key)) {
        PendingJmp& pending = pending_slab_[*pending_index];
        if (!pending.published) {
          effective_cost =
              std::max<std::uint64_t>(effective_cost, pending.max_cost);
          pending.published = true;  // consumed: drop from deferred publication
        }
      }
      if (effective_cost >= options_.tau_finished) {
        publish_finished(jmp_key, effective_cost, found.data(), found.size());
      } else {
        ++counters_.jmps_suppressed;
      }
    } else {
      // Possibly partial: defer until the query's fixpoint converges.
      PendingJmp& pending = pending_for(jmp_key);
      pending.max_cost =
          std::max(pending.max_cost, static_cast<std::uint32_t>(
                                         std::min<std::uint64_t>(cost, UINT32_MAX)));
      pending.iteration = iteration_;
      pending.targets.assign(found.begin(), found.end());
    }
  }
}

void Solver::reachable_nodes_backward(NodeId x, CtxId c, ResultSet& out) {
  reachable_nodes(
      Direction::kBackward, x, c, out,
      [&](std::vector<JmpTarget>& found, support::FlatSet& dedup,
          std::uint64_t s0) {
        // Alg. 1 lines 17-25: match each load x = p.f against every store
        // q.f = y whose base q aliases p. alias(p) is computed as
        // FlowsTo(o, c0) for each (o, c0) in PointsTo(p, c); instead of
        // scanning all stores on f per alias candidate, we look up the
        // candidate's incoming store edges directly (same match set), once
        // per query and flows set (heap_hits).
        for (const HalfEdge ld : pag_.in_edges(x, EdgeKind::kLoad)) {
          const NodeId p = ld.other;
          const std::uint32_t f = ld.aux;
          if (options_.field_approximation && !options_.refined_fields.contains(f)) {
            // Regular approximation: every store on f matches, no alias test.
            // Targets restart from the empty context (an over-approximation
            // consistent with partial balance).
            for (const HalfEdge st : pag_.stores_on_field(pag::FieldId(f))) {
              const NodeId y(st.aux);
              if (!dedup.insert(make_key(y, ContextTable::empty())))
                continue;
              found.push_back(JmpTarget{y, ContextTable::empty(),
                                        static_cast<std::uint32_t>(charged_ - s0)});
            }
            continue;
          }
          const ResultSet& pts = compute_points_to(p, c);
          for (std::size_t i = 0; i < pts.items.size(); ++i) {
            const PtPair oc = pts.items[i];
            const MemoEntry& aliased = compute_flows_to(oc.node, oc.ctx);
            // (y, ctx) for each store q.f = y with (q, ctx) in FlowsTo(o, c0).
            for (const PtPair yc : heap_hits(aliased, f, Direction::kBackward)) {
              if (!dedup.insert(make_key(yc.node, yc.ctx))) continue;
              found.push_back(JmpTarget{
                  yc.node, yc.ctx, static_cast<std::uint32_t>(charged_ - s0)});
            }
          }
        }
      });
}

void Solver::reachable_nodes_forward(NodeId z, CtxId c, ResultSet& out) {
  reachable_nodes(
      Direction::kForward, z, c, out,
      [&](std::vector<JmpTarget>& found, support::FlatSet& dedup,
          std::uint64_t s0) {
        // Mirror image: a store q.f = z forwards z's value into o.f for each
        // object o pointed to by q; every load x = p'.f on an aliased base p'
        // then continues the flowsTo path at x.
        for (const HalfEdge st : pag_.out_edges(z, EdgeKind::kStore)) {
          const NodeId q = st.other;  // base of q.f = z
          const std::uint32_t f = st.aux;
          if (options_.field_approximation && !options_.refined_fields.contains(f)) {
            for (const HalfEdge ld : pag_.loads_on_field(pag::FieldId(f))) {
              const NodeId target(ld.aux);  // dst of x = p.f
              if (!dedup.insert(make_key(target, ContextTable::empty())))
                continue;
              found.push_back(JmpTarget{target, ContextTable::empty(),
                                        static_cast<std::uint32_t>(charged_ - s0)});
            }
            continue;
          }
          const ResultSet& pts = compute_points_to(q, c);
          for (std::size_t i = 0; i < pts.items.size(); ++i) {
            const PtPair oc = pts.items[i];
            const MemoEntry& aliased = compute_flows_to(oc.node, oc.ctx);
            // (x, ctx) for each load x = p'.f with (p', ctx) in FlowsTo(o, c0).
            for (const PtPair xc : heap_hits(aliased, f, Direction::kForward)) {
              if (!dedup.insert(make_key(xc.node, xc.ctx))) continue;
              found.push_back(JmpTarget{
                  xc.node, xc.ctx, static_cast<std::uint32_t>(charged_ - s0)});
            }
          }
        }
      });
}

const Solver::ResultSet& Solver::compute_points_to(NodeId root, CtxId rc) {
  const Key key = make_key(root, rc);
  MemoEntry& entry = memo_entry(pts_memo_, key);
  if (entry.state == MemoEntry::State::kDone) {
    taint_flag_ = taint_flag_ || entry.tainted;
    return entry.set;
  }
  if (entry.state == MemoEntry::State::kInProgress) {
    taint_flag_ = true;  // cycle: the caller sees a partial set
    return entry.set;
  }

  if (entry.state == MemoEntry::State::kFresh)
    seed_entry(entry, key, Direction::kBackward);
  if (partition_ != nullptr && !partition_owns(root)) {
    // Foreign-rooted sub-query: no local edges to walk. Serve the injected
    // facts (already seeded above) and ask the router to task the owner.
    record_request(key, Direction::kBackward);
    entry.tainted = false;
    entry.state = MemoEntry::State::kDone;
    return entry.set;
  }

  entry.state = MemoEntry::State::kInProgress;
  if (++recursion_depth_ > options_.max_recursion_depth)
    out_of_budget(0, /*early=*/false);
  if (trace_ != nullptr && recursion_depth_ > depth_high_water_)
    depth_high_water_ = recursion_depth_;
  const bool outer_taint = taint_flag_;
  taint_flag_ = false;

  // Witnesses are recorded for the root (depth-1) computation only: the
  // chain from the query variable to an allocation lives entirely inside it
  // (heap matches appear as single annotated hops).
  const bool record = recording_witness_ && recursion_depth_ == 1;

  Frame& frame = frame_at(recursion_depth_);
  std::vector<PtPair>& work = frame.work;
  support::FlatSet& visited = frame.visited;
  work.clear();
  visited.clear();
  auto push = [&](NodeId n, CtxId cc, const PtPair& from, Via via) {
    if (!visited.insert(make_key(n, cc))) return;
    if (partition_ != nullptr && !partition_owns(n)) {
      record_escape(key, make_key(n, cc), Direction::kBackward);
      return;
    }
    work.push_back(PtPair{n, cc});
    if (record) {
      const auto pred = witness_pred_.try_emplace(make_key(n, cc));
      if (pred.inserted)
        pred.value = WitnessPred{make_key(from.node, from.ctx), via};
    }
  };
  push(root, rc, PtPair{root, rc}, Via::kQueryRoot);

  while (!work.empty()) {
    const PtPair cur = work.back();
    work.pop_back();
    const NodeId u = cur.node;
    const CtxId cu = cur.ctx;
    step();

    // flowsTo̅ terminals over incoming edges (Alg. 1 lines 7-15).
    for (const HalfEdge he : pag_.in_edges(u, EdgeKind::kNew)) {
      if (entry.set.add(he.other, cu)) grew_ = true;
      if (record) {
        const auto pred = witness_obj_.try_emplace(make_key(he.other, cu));
        if (pred.inserted)
          pred.value = WitnessPred{make_key(u, cu), Via::kNew};
      }
    }
    for (const HalfEdge he : pag_.in_edges(u, EdgeKind::kAssignLocal))
      push(he.other, cu, cur, Via::kAssignLocal);
    for (const HalfEdge he : pag_.in_edges(u, EdgeKind::kAssignGlobal))
      push(he.other, ContextTable::empty(), cur, Via::kAssignGlobal);
    for (const HalfEdge he : pag_.in_edges(u, EdgeKind::kParam)) {
      if (!options_.context_sensitive) {
        push(he.other, cu, cur, Via::kParam);
        continue;
      }
      // Backward over param_i exits the callee: match the top of the stack,
      // allowing partially balanced parentheses when the stack is empty.
      if (cu == ContextTable::empty())
        push(he.other, ContextTable::empty(), cur, Via::kParam);
      else if (contexts_.top(cu) == pag::CallSiteId(he.aux))
        push(he.other, contexts_.pop(cu), cur, Via::kParam);
    }
    for (const HalfEdge he : pag_.in_edges(u, EdgeKind::kRet)) {
      if (!options_.context_sensitive) {
        push(he.other, cu, cur, Via::kRet);
        continue;
      }
      // Backward over ret_i enters the callee: push the call site.
      const CtxId cc = contexts_.push(cu, pag::CallSiteId(he.aux));
      if (!cc.valid()) out_of_budget(0, /*early=*/false);  // depth overflow
      push(he.other, cc, cur, Via::kRet);
    }

    if (options_.field_sensitive && !pag_.in_edges(u, EdgeKind::kLoad).empty()) {
      ResultSet& rch = frame.rn_out;
      rch.reset();
      reachable_nodes_backward(u, cu, rch);
      for (const PtPair& t : rch.items) push(t.node, t.ctx, cur, Via::kHeapMatch);
    }
  }

  --recursion_depth_;
  entry.tainted = taint_flag_;
  entry.state = MemoEntry::State::kDone;
  taint_flag_ = outer_taint || entry.tainted;
  return entry.set;
}

const Solver::MemoEntry& Solver::compute_flows_to(NodeId root, CtxId rc) {
  const Key key = make_key(root, rc);
  MemoEntry& entry = memo_entry(flows_memo_, key);
  if (entry.state == MemoEntry::State::kDone) {
    taint_flag_ = taint_flag_ || entry.tainted;
    return entry;
  }
  if (entry.state == MemoEntry::State::kInProgress) {
    taint_flag_ = true;
    return entry;
  }

  if (entry.state == MemoEntry::State::kFresh)
    seed_entry(entry, key, Direction::kForward);
  if (partition_ != nullptr && !partition_owns(root)) {
    record_request(key, Direction::kForward);
    entry.tainted = false;
    entry.state = MemoEntry::State::kDone;
    return entry;
  }

  entry.state = MemoEntry::State::kInProgress;
  if (++recursion_depth_ > options_.max_recursion_depth)
    out_of_budget(0, /*early=*/false);
  if (trace_ != nullptr && recursion_depth_ > depth_high_water_)
    depth_high_water_ = recursion_depth_;
  const bool outer_taint = taint_flag_;
  taint_flag_ = false;

  Frame& frame = frame_at(recursion_depth_);
  std::vector<PtPair>& work = frame.work;
  support::FlatSet& visited = frame.visited;
  work.clear();
  visited.clear();
  auto push = [&](NodeId n, CtxId cc) {
    if (!visited.insert(make_key(n, cc))) return;
    if (partition_ != nullptr && !partition_owns(n)) {
      record_escape(key, make_key(n, cc), Direction::kForward);
      return;
    }
    work.push_back(PtPair{n, cc});
  };
  push(root, rc);

  while (!work.empty()) {
    const PtPair cur = work.back();
    work.pop_back();
    const NodeId u = cur.node;
    const CtxId cu = cur.ctx;
    step();

    // Every variable reached along a flowsTo path is pointed to by root.
    if (pag_.is_variable(u)) {
      if (entry.set.add(u, cu)) grew_ = true;
    }

    // flowsTo terminals over outgoing edges (the mirror of PointsTo).
    for (const HalfEdge he : pag_.out_edges(u, EdgeKind::kNew)) push(he.other, cu);
    for (const HalfEdge he : pag_.out_edges(u, EdgeKind::kAssignLocal))
      push(he.other, cu);
    for (const HalfEdge he : pag_.out_edges(u, EdgeKind::kAssignGlobal))
      push(he.other, ContextTable::empty());
    for (const HalfEdge he : pag_.out_edges(u, EdgeKind::kParam)) {
      if (!options_.context_sensitive) {
        push(he.other, cu);
        continue;
      }
      // Forward over param_i enters the callee.
      const CtxId cc = contexts_.push(cu, pag::CallSiteId(he.aux));
      if (!cc.valid()) out_of_budget(0, /*early=*/false);
      push(he.other, cc);
    }
    for (const HalfEdge he : pag_.out_edges(u, EdgeKind::kRet)) {
      if (!options_.context_sensitive) {
        push(he.other, cu);
        continue;
      }
      // Forward over ret_i exits the callee back to the call site.
      if (cu == ContextTable::empty())
        push(he.other, ContextTable::empty());
      else if (contexts_.top(cu) == pag::CallSiteId(he.aux))
        push(he.other, contexts_.pop(cu));
    }

    if (options_.field_sensitive && pag_.is_variable(u) &&
        !pag_.out_edges(u, EdgeKind::kStore).empty()) {
      ResultSet& rch = frame.rn_out;
      rch.reset();
      reachable_nodes_forward(u, cu, rch);
      for (const PtPair& t : rch.items) push(t.node, t.ctx);
    }
  }

  --recursion_depth_;
  entry.tainted = taint_flag_;
  entry.state = MemoEntry::State::kDone;
  taint_flag_ = outer_taint || entry.tainted;
  return entry;
}

const Solver::ResultSet& Solver::compute_generic(NodeId root, CtxId rc,
                                                 std::uint32_t state) {
  const GrammarTable& g = *grammar_;
  const Key key = generic_key(state, root, rc);
  MemoEntry& entry = memo_entry(generic_memo_, key);
  if (entry.state == MemoEntry::State::kDone) {
    taint_flag_ = taint_flag_ || entry.tainted;
    return entry.set;
  }
  if (entry.state == MemoEntry::State::kInProgress) {
    taint_flag_ = true;  // cycle: the caller sees a partial set
    return entry.set;
  }

  entry.state = MemoEntry::State::kInProgress;
  if (++recursion_depth_ > options_.max_recursion_depth)
    out_of_budget(0, /*early=*/false);
  if (trace_ != nullptr && recursion_depth_ > depth_high_water_)
    depth_high_water_ = recursion_depth_;
  const bool outer_taint = taint_flag_;
  taint_flag_ = false;

  const bool backward = g.direction == Direction::kBackward;
  Frame& frame = frame_at(recursion_depth_);
  std::vector<PtPair>& work = frame.work;
  std::vector<std::uint8_t>& work_state = frame.work_state;
  support::FlatSet& visited = frame.visited;
  work.clear();
  work_state.clear();
  visited.clear();
  auto push = [&](NodeId n, CtxId cc, std::uint8_t s) {
    if (!visited.insert(generic_key(s, n, cc))) return;
    work.push_back(PtPair{n, cc});
    work_state.push_back(s);
  };
  push(root, rc, static_cast<std::uint8_t>(state));

  while (!work.empty()) {
    const PtPair cur = work.back();
    const std::uint8_t s = work_state.back();
    work.pop_back();
    work_state.pop_back();
    const NodeId u = cur.node;
    const CtxId cu = cur.ctx;
    step();

    // A variable visited in an accepting state is an answer (the forward
    // loop's accept-at-visit; allocation sites instead arrive through `emit`
    // cells below, mirroring the backward loop's in-`new` emission).
    if (g.accept[s] && pag_.is_variable(u)) {
      if (entry.set.add(u, cu)) grew_ = true;
    }

    // Transitions in EdgeKind order — the same relative order in which the
    // hard-coded loops push, so pointer-table walks charge identically.
    for (std::uint32_t k = 0; k < GrammarTable::kEdgeKinds; ++k) {
      const GrammarTable::Cell cell = g.cells[s][k];
      if (!cell.present) continue;
      const auto kind = static_cast<EdgeKind>(k);
      const auto edges =
          backward ? pag_.in_edges(u, kind) : pag_.out_edges(u, kind);
      for (const HalfEdge he : edges) {
        CtxId cc = cu;
        if (kind == EdgeKind::kAssignGlobal) {
          cc = ContextTable::empty();
        } else if (options_.context_sensitive &&
                   (kind == EdgeKind::kParam || kind == EdgeKind::kRet)) {
          // RCS parentheses: whichever grammar consumes a param/ret edge, the
          // context action is fixed by kind and direction — backward exits
          // the callee over param and enters over ret; forward mirrors.
          const bool enter =
              backward ? kind == EdgeKind::kRet : kind == EdgeKind::kParam;
          if (enter) {
            cc = contexts_.push(cu, pag::CallSiteId(he.aux));
            if (!cc.valid()) out_of_budget(0, /*early=*/false);
          } else if (cu == ContextTable::empty()) {
            cc = cu;  // partial balance on the empty stack
          } else if (contexts_.top(cu) == pag::CallSiteId(he.aux)) {
            cc = contexts_.pop(cu);
          } else {
            continue;  // unrealisable call path
          }
        }
        if (cell.emit) {
          if (entry.set.add(he.other, cc)) grew_ = true;
        } else {
          push(he.other, cc, cell.next);
        }
      }
    }

    // Heap-paren group last, exactly where the hard-coded loops run it. The
    // bodies issue pointer-semantics alias sub-queries, so their jmp keys are
    // grammar-independent and warm state is shared across query kinds.
    if (g.heap[s] && options_.field_sensitive) {
      const bool wanted =
          backward ? !pag_.in_edges(u, EdgeKind::kLoad).empty()
                   : pag_.is_variable(u) &&
                         !pag_.out_edges(u, EdgeKind::kStore).empty();
      if (wanted) {
        ResultSet& rch = frame.rn_out;
        rch.reset();
        if (backward)
          reachable_nodes_backward(u, cu, rch);
        else
          reachable_nodes_forward(u, cu, rch);
        for (const PtPair& t : rch.items)
          push(t.node, t.ctx, g.heap_next[s]);
      }
    }
  }

  --recursion_depth_;
  entry.tainted = taint_flag_;
  entry.state = MemoEntry::State::kDone;
  taint_flag_ = outer_taint || entry.tainted;
  return entry.set;
}

void Solver::run_query(NodeId root, CtxId rc, Direction dir, QueryResult& out) {
  // Pin the reclamation epoch for the whole query: jmp lookups hand back raw
  // pointers into store-owned records, and the pin keeps any record retired
  // by a concurrent erase_if/clear alive until we are done with it. Nested
  // pins (one per lookup would be the alternative) are cheap, but one per
  // query is cheaper still.
  std::optional<support::EpochGuard> epoch_pin;
  if (store_ != nullptr) epoch_pin.emplace(support::global_epoch_domain());

  // Epoch-clear the maps and rewind the slabs: O(1), keeps all storage.
  pts_memo_.clear();
  flows_memo_.clear();
  generic_memo_.clear();
  memo_slab_.reset();
  heap_hits_map_.clear();
  heap_hits_slab_.reset();
  pending_map_.clear();
  pending_slab_.reset();
  consumed_jmp_keys_.clear();
  sharing_stack_.clear();
  charged_ = 0;
  traversed_ = 0;
  saved_ = 0;
  taint_flag_ = false;
  recursion_depth_ = 0;
  iteration_ = 0;
  partition_dirty_ = false;
  seeded_tuples_ = 0;
  escapes_.clear();

  if (trace_ != nullptr) {
    trace_->clear();
    depth_high_water_ = 0;
    trace_->emit(obs::TraceEvent::kQueryStart, root.value(),
                 dir == Direction::kForward ? 1u : 0u);
  }

  auto& memo = grammar_ != nullptr
                   ? generic_memo_
                   : (dir == Direction::kBackward ? pts_memo_ : flows_memo_);
  const Key root_key =
      grammar_ != nullptr ? generic_key(0, root, rc) : make_key(root, rc);

  out.status = QueryStatus::kComplete;
  out.tuples.clear();
  std::uint32_t iterations = 0;
  bool converged = false;
  try {
    for (;;) {
      ++iterations;
      iteration_ = iterations;
      grew_ = false;
      taint_flag_ = false;
      if (grammar_ != nullptr)
        compute_generic(root, rc, /*state=*/0);
      else if (dir == Direction::kBackward)
        compute_points_to(root, rc);
      else
        compute_flows_to(root, rc);

      // Exact if the root computation never touched a cycle; otherwise
      // iterate (sets grow monotonically) until stable or capped.
      const std::uint32_t* root_index = memo.find(root_key);
      PARCFL_DCHECK(root_index != nullptr);
      const bool root_tainted = memo_slab_[*root_index].tainted;
      if (!root_tainted) {
        converged = true;
        break;
      }
      if (iterations > 1 && !grew_) {
        converged = true;
        break;
      }
      if (iterations >= options_.max_fixpoint_iters) break;

      // Demote every tainted entry for recomputation, keeping its set as the
      // (monotone) starting point. The slab holds exactly this query's
      // entries (both directions), in creation order.
      for (std::uint32_t i = 0; i < memo_slab_.used(); ++i) {
        MemoEntry& e = memo_slab_[i];
        if (e.tainted && e.state == MemoEntry::State::kDone) {
          e.state = MemoEntry::State::kStale;
          e.tainted = false;
        }
      }
    }
    out.status = QueryStatus::kComplete;

    // Deferred publication: during the final (converged) iteration no memo
    // set grew, so every result read then — including partial reads on
    // cycles — was already complete. Tainted RN results from that iteration
    // are therefore exact and shareable.
    if (converged && options_.data_sharing && store_ != nullptr) {
      for (std::uint32_t i = 0; i < pending_slab_.used(); ++i) {
        PendingJmp& pending = pending_slab_[i];
        if (pending.published) continue;                // consumed earlier
        if (pending.iteration != iterations) continue;  // possibly stale
        if (pending.max_cost >= options_.tau_finished) {
          publish_finished(pending.key, pending.max_cost,
                           pending.targets.data(), pending.targets.size());
        } else {
          ++counters_.jmps_suppressed;
        }
      }
    }
  } catch (const OutOfBudgetEx& ex) {
    out.status = ex.early_termination ? QueryStatus::kEarlyTermination
                                      : QueryStatus::kOutOfBudget;
    sharing_stack_.clear();
  }

  // Batched publication flushes once per query, on every exit path: aborted
  // queries still contribute their unfinished jmps (Alg. 2 line 24), they
  // just stop contending with readers mid-traversal.
  flush_publications();

  if (const std::uint32_t* root_index = memo.find(root_key))
    out.tuples = memo_slab_[*root_index].set.items;

  ++counters_.queries;
  if (out.status == QueryStatus::kOutOfBudget) ++counters_.out_of_budget;
  counters_.charged_steps += charged_;
  counters_.traversed_steps += traversed_;
  counters_.saved_steps += saved_;
  counters_.points_to_tuples += out.tuples.size();
  counters_.fixpoint_iterations += iterations - 1;

  if (trace_ != nullptr) {
    trace_->emit(obs::TraceEvent::kDepthHighWater, depth_high_water_);
    trace_->emit(obs::TraceEvent::kQueryStats, traversed_, iterations);
    trace_->emit(obs::TraceEvent::kQueryEnd, charged_,
                 static_cast<std::uint32_t>(out.status));
  }
}

}  // namespace parcfl::cfl
