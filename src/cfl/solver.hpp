#pragma once
// Demand-driven, budgeted, context- and field-sensitive pointer analysis via
// CFL-reachability — the paper's Algorithm 1 (PointsTo / FlowsTo /
// ReachableNodes) with the Algorithm 2 data-sharing extension.
//
// Grammars implemented (paper eqs. 2-4, with flowsTo̅ as the start symbol for
// PointsTo):
//
//   flowsTo  -> new ( assign | jmp | st(f) alias ld(f) )*
//   alias    -> flowsTo̅ flowsTo
//   flowsTo̅  -> ( assign | jmp | ld(f) alias st(f) )* new      (inverse edges)
//   RCS      -> balanced param_i/ret_i parentheses, partial balance allowed
//               when the context stack is empty (eq. 3)
//
// PointsTo(l, c) walks the PAG *backwards* (against value flow); FlowsTo(o, c)
// walks *forwards*. Heap accesses are matched in ReachableNodes: a load
// x = p.f reaches every store q.f = y whose base q aliases p (Alg. 1 lines
// 17-25), where the alias test itself issues recursive PointsTo/FlowsTo
// sub-queries.
//
// Budget semantics (paper §II-B3): each node traversal charges one step
// against the per-query budget B; exhaustion aborts the query. With data
// sharing, consuming a finished jmp charges the shortcut's recorded cost
// without traversing — so the budget-limited behaviour (and hence precision)
// is identical with sharing on or off, while the actual work shrinks. The
// solver therefore tracks `charged` (budget-visible) and `traversed` (real
// work) steps separately; Table I's "steps saved" is their difference.
//
// Re-entrant sub-queries (points-to cycles that survive the assign-SCC
// collapse) return their partial result and taint the reader; the top-level
// query iterates to a fixpoint (sets grow monotonically). jmp edges are only
// published from untainted computations, keeping the shared store sound.
//
// Thread-safety: one Solver per worker thread. The PAG, ContextTable and
// JmpStore are shared; all per-query state is Solver-local.
//
// Hot-path storage (DESIGN.md § Hot-path data structures): memo tables,
// visited/dedup sets and pending-jmp maps are flat open-addressing tables
// with epoch-based O(1) clear; entries that own memory live in arena-backed
// slabs addressed by index. A solver keeps all of it across queries, so the
// steady-state query loop performs no heap allocation in the memo /
// result-set path (memory_stats() is the verification hook).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

// Refinement (§IV-A's "refinement-based configuration", after Sridharan &
// Bodík [18]): with field_approximation enabled, a load x = p.f matches
// *every* store q.f = y on the same field without testing that p and q alias
// — a regular over-approximation that skips the expensive recursive alias
// sub-queries. Fields in `refined_fields` keep the exact CFL matching.
// Clients (see clients/refinement.hpp) iterate: prove with the cheap
// approximation when possible, refine the fields that caused imprecision
// otherwise. The paper itself evaluates the non-refinement configuration;
// this mode reproduces the alternative its §IV-A mentions.

#include "cfl/context.hpp"
#include "cfl/jmp_store.hpp"
#include "pag/pag.hpp"
#include "support/flat_map.hpp"
#include "support/flat_set.hpp"
#include "support/slab.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace parcfl::cfl {

struct GrammarTable;  // cfl/grammar.hpp

struct SolverOptions {
  std::uint64_t budget = 75000;   // B — max charged steps per query (paper §IV-A)
  bool context_sensitive = true;  // RCS filtering on param/ret parentheses
  bool field_sensitive = true;    // heap matching via ReachableNodes; when
                                  // false the CFL degenerates to LFT (eq. 1)
  bool data_sharing = false;      // Algorithm 2 (requires a JmpStore)
  bool share_forward = true;      // also share FlowsTo-side heap matches
  /// Algorithm 2 line 5 charges a consumed shortcut's full recorded cost to
  /// the budget, which reproduces the budget behaviour of the paper's
  /// *unmemoised* sequential baseline. Our baseline memoises sub-queries, so
  /// that charging would abort queries the plain run completes (it double
  /// counts sub-traversals shared between shortcuts). Default: budget tracks
  /// actual traversal, keeping answers identical across all configurations;
  /// enable for paper-exact accounting (see bench_ablation).
  bool charge_jmp_costs = false;
  std::uint32_t tau_finished = 100;    // τF: min cost to publish a finished jmp
  std::uint32_t tau_unfinished = 10000;  // τU: min s to publish an unfinished jmp
  /// Buffer jmp publications per query and flush them at query end (DESIGN.md
  /// §9): mid-traversal the solver then never takes a store shard lock, so
  /// writers stop contending with other workers' lock-free lookups. Flushing
  /// still goes through the store's first-wins inserts, and single-threaded
  /// outcomes are identical either way (the property test in
  /// tests/concurrency_stress_test.cpp); disable to publish at the paper's
  /// Alg. 2 line 20/24 points exactly.
  bool batched_publication = true;
  bool field_approximation = false;  // regular approximation of field parens
  std::unordered_set<std::uint32_t> refined_fields;  // exact matching anyway
  std::uint32_t max_fixpoint_iters = 16;  // cycle-closure iterations per query
  std::uint32_t max_recursion_depth = 2000;  // native-stack guard on the
                                             // mutually recursive sub-queries;
                                             // exceeding it aborts the query
                                             // like budget exhaustion
  /// Per-query tracing (parcfl::obs): 0 = off — the hot path pays a single
  /// null-pointer test; 1 = span events (query start/end, step totals,
  /// recursion-depth high-water); 2 = level 1 plus per-jmp events (hit /
  /// miss / publish / early termination). Emission also requires a ring
  /// attached via Solver::set_trace; the level alone allocates nothing.
  std::uint32_t trace_level = 0;
};

enum class QueryStatus : std::uint8_t {
  kComplete,          // traversal exhausted within budget: full answer
  kOutOfBudget,       // budget exhausted mid-traversal: partial answer
  kEarlyTermination,  // aborted via an unfinished jmp (budget would not suffice)
};

struct PtPair {
  pag::NodeId node;
  CtxId ctx;
};

// ---- partitioned (scale-out) execution — DESIGN.md §14 ---------------------
//
// A solver serving one partition of a sharded PAG runs against a sub-PAG
// that holds every edge incident to owned nodes plus all load/store edges
// (pag::make_sub_pag). With a PartitionView attached:
//   * pushing a configuration whose node another partition owns records an
//     *escape* (src config -> dst config, same direction) and drops the push;
//   * a sub-query rooted at a foreign node performs no traversal — it
//     answers from injected seed facts and records a *request* so the router
//     tasks the owner;
//   * fresh memo entries are seeded from SeedFacts, the router's accumulated
//     cross-partition fact table for this distributed query;
//   * the first escape or consumed seed marks the query partition-dirty, and
//     a dirty query publishes no jmps at all — every entry in the shared
//     store therefore came from a fully local computation, which (by the
//     sub-PAG edge rules) equals the full-graph computation, so warm state
//     stays globally exact.
// The router re-runs tasks with the growing fact table until a round adds
// nothing (chaotic iteration of the monotone configuration fixpoint); see
// service/router.hpp.

struct PartitionView {
  const std::uint32_t* owner = nullptr;  // node id -> owning partition
  std::uint32_t local = 0;
};

/// One suppressed cross-partition discovery. `src`/`dst` pack (node<<32|ctx)
/// like memo keys. kUnion: dst's full result belongs inside src's result set.
/// kRequest: a foreign-rooted sub-query (src == dst) whose result is consumed
/// structurally (alias matching), not unioned into any local set.
struct EscapeRecord {
  enum class Kind : std::uint8_t { kUnion, kRequest };
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  Direction dir = Direction::kBackward;
  Kind kind = Kind::kUnion;

  friend bool operator==(const EscapeRecord& a, const EscapeRecord& b) {
    return a.src == b.src && a.dst == b.dst && a.dir == b.dir && a.kind == b.kind;
  }
  friend bool operator<(const EscapeRecord& a, const EscapeRecord& b) {
    if (a.dir != b.dir) return a.dir < b.dir;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  }
};

/// Injected cross-partition facts, keyed by packed (node<<32|ctx) config per
/// direction. Owned by the service's continuation state; the solver reads it.
struct SeedFacts {
  std::unordered_map<std::uint64_t, std::vector<PtPair>> backward;
  std::unordered_map<std::uint64_t, std::vector<PtPair>> forward;

  const std::vector<PtPair>* find(Direction dir, std::uint64_t key) const {
    const auto& m = dir == Direction::kBackward ? backward : forward;
    const auto it = m.find(key);
    return it == m.end() ? nullptr : &it->second;
  }
  bool empty() const { return backward.empty() && forward.empty(); }
};

struct QueryResult {
  QueryStatus status = QueryStatus::kComplete;
  std::vector<PtPair> tuples;  // (object, ctx) for PointsTo; (var, ctx) for FlowsTo

  /// Deduplicated object/variable ids (context projected away).
  std::vector<pag::NodeId> nodes() const;
  /// Same, reusing `out`'s storage (allocation-free once warm).
  void nodes_into(std::vector<pag::NodeId>& out) const;
  bool contains(pag::NodeId n) const;
  bool complete() const { return status == QueryStatus::kComplete; }
};

class Solver {
 public:
  /// `store` may be null when options.data_sharing is false.
  Solver(const pag::Pag& pag, ContextTable& contexts, JmpStore* store,
         const SolverOptions& options);

  /// Points-to set of variable l in the empty (unconstrained) context.
  QueryResult points_to(pag::NodeId l);

  /// Variables the object o may flow to, from the empty context.
  QueryResult flows_to(pag::NodeId o);

  /// Batch-friendly variants: answer into `out`, reusing its storage. The
  /// engine's query loop uses these so the per-query path stays
  /// allocation-free in steady state.
  void points_to(pag::NodeId l, QueryResult& out);
  void flows_to(pag::NodeId o, QueryResult& out);

  /// Generic-grammar reachability (DESIGN.md §15): walk the PAG under a
  /// compiled GrammarTable — the machinery behind the `taint` and `depends`
  /// query kinds, and (with the pointer table) a semantics-identical slow
  /// path used to pin the hard-coded fast path in tests. Shares the budget /
  /// memo / fixpoint / warm-state plumbing with points_to; heap-paren groups
  /// still run pointer-semantics ReachableNodes sub-queries, so jmp keys stay
  /// grammar-independent and the shared store remains sound across kinds.
  /// Unsupported on partitioned workers (checked). `cold` keeps the whole
  /// generic path in .text.unlikely, away from the pointer fast path's
  /// working set (see compute_generic below).
  __attribute__((cold)) QueryResult reach(pag::NodeId root,
                                          const GrammarTable& table);
  __attribute__((cold)) void reach(pag::NodeId root, const GrammarTable& table,
                                   QueryResult& out);

  /// May v1 and v2 point to a common object? (client helper; both sub-queries
  /// must complete for a definitive "no").
  enum class AliasAnswer : std::uint8_t { kNo, kMay, kUnknown };
  AliasAnswer may_alias(pag::NodeId v1, pag::NodeId v2);

  /// Cap subsequent queries' budget at min(b, options().budget); 0 restores
  /// the configured budget. Per-request admission control in parcfl::service
  /// sets this before each query. Published unfinished jmps are clamped to
  /// the effective budget, so entries minted under a tighter cap remain
  /// sound for consumers running with the full one.
  void set_query_budget(std::uint64_t b) {
    budget_limit_ = b == 0 ? options_.budget : std::min(b, options_.budget);
  }
  std::uint64_t query_budget() const { return budget_limit_; }

  /// Attach a partition view (null detaches). The caller owns the view and
  /// its owner table; both must outlive the solver's use of them.
  void set_partition(const PartitionView* view) { partition_ = view; }
  /// Attach injected cross-partition facts for subsequent queries (null
  /// detaches). Consulted whenever a fresh memo entry is created.
  void set_seed_facts(const SeedFacts* seeds) { seeds_ = seeds; }
  /// Whether the last query escaped the partition or consumed a seed fact
  /// (such queries publish no jmps and their answers are round-partial).
  bool partition_dirty() const { return partition_dirty_; }
  /// Escapes recorded by the last query, sorted and deduplicated. Clears the
  /// internal buffer.
  void take_escapes(std::vector<EscapeRecord>& out);
  /// Seed tuples consumed by the last query (stats).
  std::uint64_t seeded_tuples() const { return seeded_tuples_; }

  /// Continuation entry point for the scale-out plane: run one configuration
  /// (root, ctx, direction) exactly as a nested sub-query would — the root
  /// context need not be empty and the root may be an object in the forward
  /// direction. Identical to points_to/flows_to when rc is empty.
  void run_config(pag::NodeId root, CtxId rc, Direction dir, QueryResult& out) {
    run_query(root, rc, dir, out);
  }

  /// How one traversal hop was justified, for witnesses.
  enum class Via : std::uint8_t {
    kQueryRoot,
    kNew,
    kAssignLocal,
    kAssignGlobal,
    kParam,
    kRet,
    kHeapMatch,  // reached through a matched load/store pair (alias test)
  };

  struct WitnessStep {
    PtPair config;
    Via via;  // how this configuration was reached from the previous step
  };

  /// Explain why `object` ∈ points_to(var): the chain of configurations the
  /// backward traversal followed from the query root to the allocation site,
  /// each labelled with the edge class used (heap matches are reported as
  /// one kHeapMatch hop; their internal alias traversal is not expanded).
  /// Empty when the fact does not hold within the budget. Re-runs the query
  /// with predecessor recording — a debugging aid, not a hot-path API.
  std::vector<WitnessStep> explain_points_to(pag::NodeId var, pag::NodeId object);

  static const char* to_string(Via via);

  /// Counters accumulated over every query answered by this solver.
  const support::QueryCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// Attach a trace ring (owned by the caller, same thread as the solver).
  /// The ring is cleared at every query start, so after points_to/flows_to
  /// returns it holds exactly that query's events. A null ring — or
  /// options().trace_level == 0 — turns tracing off.
  void set_trace(obs::TraceRing* ring) {
    trace_ = options_.trace_level > 0 ? ring : nullptr;
  }
  obs::TraceRing* trace() const { return trace_; }

  const SolverOptions& options() const { return options_; }

  /// Allocation fingerprint of the solver-owned hot-path state. Every heap
  /// allocation in the memo / result-set path moves at least one of these
  /// numbers, so "two identical batches, identical stats after each" proves
  /// the steady-state query loop is allocation-free (tests/flat_map_test).
  struct MemoryStats {
    std::uint64_t table_rehashes = 0;   // flat table growth events
    std::uint64_t slab_objects = 0;     // memo/pending/heap-hit entries built
    std::uint64_t slab_bytes = 0;       // arena bytes behind the slabs
    std::uint64_t frame_count = 0;      // recursion scratch frames
    std::uint64_t scratch_capacity_bytes = 0;  // pooled vector capacities
    std::uint64_t heap_hit_lists = 0;   // heap-match cache entries built (a
                                        // share of slab_objects)
    bool operator==(const MemoryStats&) const = default;
  };
  MemoryStats memory_stats() const;

 private:
  // ---- query-local state -------------------------------------------------
  using Key = std::uint64_t;  // (node << 32) | ctx

  static Key make_key(pag::NodeId n, CtxId c) {
    return (static_cast<std::uint64_t>(n.value()) << 32) | c.value();
  }

  /// Generic-walk keys carry the grammar state in the top bits (kMaxStates is
  /// 4, so 2 bits suffice); node and ctx shrink to 31 bits each, far above
  /// any real graph or context-table size.
  static Key generic_key(std::uint32_t state, pag::NodeId n, CtxId c);

  struct ResultSet {
    std::vector<PtPair> items;
    support::FlatSet present;

    bool add(pag::NodeId n, CtxId c) {
      if (!present.insert(make_key(n, c))) return false;
      items.push_back(PtPair{n, c});
      return true;
    }
    void reset() {
      items.clear();
      present.clear();
    }
  };

  struct MemoEntry {
    enum class State : std::uint8_t { kFresh, kInProgress, kDone, kStale };
    State state = State::kFresh;
    bool tainted = false;  // consumed a partial (cycle) or tainted result
    std::uint32_t index = 0;  // own memo_slab_ index (heap-match cache key)
    ResultSet set;

    void reset() {
      state = State::kFresh;
      tainted = false;
      set.reset();
    }
  };

  struct OutOfBudgetEx {
    bool early_termination;
  };

  struct SharingFrame {
    std::uint64_t jmp_key;
    std::uint64_t s0;  // charged steps when ReachableNodes(x, c) began
  };

  // ---- traversal ----------------------------------------------------------
  void step() {
    ++charged_;
    ++traversed_;
    if (charged_ > budget_limit_) out_of_budget(0, /*early=*/false);
  }

  /// Alg. 2's OUTOFBUDGET: publish unfinished jmps for every active
  /// ReachableNodes frame, then abort the query.
  [[noreturn]] void out_of_budget(std::uint64_t bdg, bool early);

  /// Memoised PointsTo(x, c) / FlowsTo(o, c). The returned reference is
  /// stable (slab-backed) but its set may keep growing while iterated.
  /// FlowsTo hands back the whole entry: heap_hits keys on its slab index.
  const ResultSet& compute_points_to(pag::NodeId x, CtxId c);
  const MemoEntry& compute_flows_to(pag::NodeId o, CtxId c);

  /// Table-driven variant of the two loops above, active when grammar_ is
  /// set: one worklist walk carrying (node, ctx, grammar state), transitions
  /// and accepts read from the compiled table, context actions derived from
  /// edge kind + direction. Heap groups recurse into the pointer-semantics
  /// ReachableNodes bodies. Kept out of the hot text section: the pointer
  /// fast path shares this TU, and letting this loop interleave with
  /// compute_points_to's code costs the headline measurable icache misses.
  __attribute__((cold, noinline)) const ResultSet& compute_generic(
      pag::NodeId x, CtxId c, std::uint32_t state);

  /// Heap-access match for the backward (PointsTo) direction: all (y, c')
  /// such that some load x = p.f matches a store q.f = y with q alias p.
  void reachable_nodes_backward(pag::NodeId x, CtxId c, ResultSet& out);
  /// Forward (FlowsTo) mirror: stores out of z feed loads on aliased bases.
  void reachable_nodes_forward(pag::NodeId z, CtxId c, ResultSet& out);

  /// The heap accesses on field f met by scanning the flows set `aliased` in
  /// order: (y, ctx) for every store q.f = y on a member (q, ctx) when
  /// backward, (x, ctx) for every load x = p.f on a member (p, ctx) when
  /// forward. Memoised per query; only the suffix added since the last call
  /// is scanned (DESIGN.md §6, heap-match cache). The reference is valid
  /// until the next heap_hits call.
  const std::vector<PtPair>& heap_hits(const MemoEntry& aliased,
                                       std::uint32_t f, Direction dir);

  /// Shared shortcut-or-compute wrapper around both ReachableNodes bodies.
  /// `compute(found, dedup, s0)` fills `found` using `dedup` for
  /// per-invocation target dedup; both are pooled scratch.
  template <class ComputeFn>
  void reachable_nodes(Direction dir, pag::NodeId x, CtxId c, ResultSet& out,
                       ComputeFn&& compute);

  void run_query(pag::NodeId root, Direction dir, QueryResult& out) {
    run_query(root, ContextTable::empty(), dir, out);
  }
  void run_query(pag::NodeId root, CtxId rc, Direction dir, QueryResult& out);

  // ---- partitioned execution (DESIGN.md §14) ------------------------------
  bool partition_owns(pag::NodeId n) const {
    return partition_ == nullptr || partition_->owner[n.value()] == partition_->local;
  }
  void record_escape(Key src, Key dst, Direction dir) {
    partition_dirty_ = true;
    escapes_.push_back(EscapeRecord{src, dst, dir, EscapeRecord::Kind::kUnion});
  }
  void record_request(Key cfg, Direction dir) {
    partition_dirty_ = true;
    escapes_.push_back(EscapeRecord{cfg, cfg, dir, EscapeRecord::Kind::kRequest});
  }
  /// Union the router-injected facts for (key, dir) into a fresh entry.
  void seed_entry(MemoEntry& entry, Key key, Direction dir);

  const PartitionView* partition_ = nullptr;
  const SeedFacts* seeds_ = nullptr;
  std::vector<EscapeRecord> escapes_;
  bool partition_dirty_ = false;
  std::uint64_t seeded_tuples_ = 0;

  // ---- shared, immutable/concurrent --------------------------------------
  const pag::Pag& pag_;
  ContextTable& contexts_;
  JmpStore* store_;
  SolverOptions options_;
  /// Active compiled grammar, non-null only for the duration of reach().
  const GrammarTable* grammar_ = nullptr;

  // ---- per-query (epoch-cleared and slab-recycled across queries) ---------
  /// Memo tables map packed keys to indices into `memo_slab_`; the entries
  /// themselves (which own growing result sets) live in the slab so their
  /// addresses are stable under rehash and their buffers survive clear().
  support::FlatMap<std::uint32_t> pts_memo_;
  support::FlatMap<std::uint32_t> flows_memo_;
  /// Memo for generic-grammar walks, keyed by generic_key. Entries share
  /// memo_slab_ so the fixpoint demote-stale sweep covers them uniformly;
  /// pointer sub-queries issued from heap groups still land in
  /// pts_memo_/flows_memo_.
  support::FlatMap<std::uint32_t> generic_memo_;
  support::Slab<MemoEntry> memo_slab_;
  std::vector<SharingFrame> sharing_stack_;  // the S of Algorithm 2

  /// Heap-match cache: (flows entry's slab index, field, direction) ->
  /// heap_hits_slab_ index. Flows sets only grow within a query, so a hit
  /// list plus the count of items already scanned stays exact.
  struct HeapHits {
    std::uint32_t scanned = 0;  // prefix of the flows set already scanned
    std::vector<PtPair> hits;   // matches in scan order, duplicates kept
  };
  support::FlatMap<std::uint32_t> heap_hits_map_;
  support::Slab<HeapHits> heap_hits_slab_;

  /// Tainted ReachableNodes results cannot be published when computed — a
  /// partial (cyclic) read may still grow. But once the query's fixpoint
  /// converges (an iteration with no set growth), every read made during
  /// that final iteration saw a complete set, so its RN results are exact
  /// and are published then. Cost is the max observed across iterations
  /// (the first, cold iteration approximates what a fresh query would pay).
  struct PendingJmp {
    std::uint64_t key = 0;             // the jmp key (slab iteration needs it)
    std::uint32_t max_cost = 0;
    std::uint32_t iteration = 0;       // iteration that produced `targets`
    bool published = false;  // already in the store (the insert-only map's
                             // stand-in for erasure)
    std::vector<JmpTarget> targets;
  };
  support::FlatMap<std::uint32_t> pending_map_;  // jmp key -> pending slab idx
  support::Slab<PendingJmp> pending_slab_;

  /// Publication buffers (options_.batched_publication): finished/unfinished
  /// jmps queue here during the traversal and flush once at query end.
  /// Target lists live in one flat arena addressed by [begin, end) ranges, so
  /// buffering allocates nothing in steady state (capacities are part of
  /// memory_stats()).
  struct BufferedFinished {
    std::uint64_t key;
    std::uint32_t cost;
    std::uint32_t begin, end;  // range into pub_targets_
  };
  struct BufferedUnfinished {
    std::uint64_t key;
    std::uint32_t s;
  };
  std::vector<BufferedFinished> pub_finished_;
  std::vector<BufferedUnfinished> pub_unfinished_;
  std::vector<JmpTarget> pub_targets_;

  /// Publish or buffer a finished/unfinished jmp per batched_publication.
  void publish_finished(std::uint64_t jmp_key, std::uint64_t cost,
                        const JmpTarget* data, std::size_t n);
  void publish_unfinished(std::uint64_t jmp_key, std::uint32_t s);
  void flush_publications();

  /// Pooled traversal scratch, one frame per recursion depth. A compute_*
  /// activation at depth d owns frame d's work stack and visited set; the
  /// (single) ReachableNodes call active at depth d owns its rn_* members.
  struct Frame {
    std::vector<PtPair> work;
    std::vector<std::uint8_t> work_state;  // generic walks only: grammar
                                           // state, in lockstep with `work`
    support::FlatSet visited;
    ResultSet rn_out;
    std::vector<JmpTarget> rn_found;
    support::FlatSet rn_dedup;
  };
  std::vector<std::unique_ptr<Frame>> frames_;

  Frame& frame_at(std::uint32_t depth);
  MemoEntry& memo_entry(support::FlatMap<std::uint32_t>& memo, Key key);
  PendingJmp& pending_for(std::uint64_t jmp_key);

  /// Witness recording (only while explain_points_to runs, and only for the
  /// root computation): first-discovery predecessor of each configuration,
  /// and of each (object, ctx) result.
  struct WitnessPred {
    Key from;
    Via via;
  };
  bool recording_witness_ = false;
  support::FlatMap<WitnessPred> witness_pred_;
  support::FlatMap<WitnessPred> witness_obj_;
  /// jmp keys already charged this query: re-consuming a shortcut during a
  /// later fixpoint iteration charges nothing, mirroring the near-zero cost
  /// of recomputing a ReachableNodes body against warm memo tables.
  support::FlatSet consumed_jmp_keys_;
  std::uint32_t iteration_ = 0;
  std::uint64_t budget_limit_ = 0;  // effective per-query budget (<= options' B)
  std::uint64_t charged_ = 0;
  std::uint64_t traversed_ = 0;
  std::uint64_t saved_ = 0;
  bool taint_flag_ = false;  // taint of the computation currently running
  bool grew_ = false;        // any memo set grew during this iteration
  std::uint32_t recursion_depth_ = 0;

  /// Tracing (see SolverOptions::trace_level). trace_ stays null when the
  /// level is 0, so every hook below level-gates on one pointer test.
  obs::TraceRing* trace_ = nullptr;
  std::uint32_t depth_high_water_ = 0;
  bool trace_jmp_events() const {
    return trace_ != nullptr && options_.trace_level >= 2;
  }

  support::QueryCounters counters_;
};

}  // namespace parcfl::cfl
