#pragma once
// Min-cost max-flow via successive shortest paths with Johnson
// potentials (Dijkstra per augmentation). This is the matching engine
// behind the GreenMatch planner: tasks are matched to (slot, capacity)
// bins at a cost proportional to the expected brown energy of running
// there. Costs must be non-negative; capacities are integers.
//
// The planner rebuilds its network every slot, so the class doubles as
// an arena: reset() clears the network while keeping every previously
// allocated adjacency list and all Dijkstra scratch (distance labels,
// potentials, predecessor arrays, heap storage) for the next build.
// Reusing one instance across solves is allocation-free in steady
// state and measurably faster than constructing a fresh network
// (see BM_MinCostFlowAssignment / BM_GreenMatchPlanDay).
//
// Callers that solve a slowly-drifting sequence of networks (the
// planner replans a shifted copy of last slot's problem) can warm-start
// a solve from the previous solve's Johnson potentials. They are
// validated in O(E) against the non-negative-reduced-cost invariant and
// silently dropped (zero re-init) if the new network violates it, so a
// warm start can never change correctness — only the work per Dijkstra.

#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

namespace gm::core {

class MinCostFlow {
 public:
  using NodeIdx = int;
  static constexpr long long kInfCost = LLONG_MAX / 4;

  explicit MinCostFlow(int node_count);

  /// Clears the network down to `node_count` empty adjacency lists.
  /// Previously allocated edge storage and solver scratch survive, so
  /// a caller that plans every slot pays for allocation only once.
  void reset(int node_count);

  /// Adds a directed edge; returns its index (for flow inspection).
  int add_edge(NodeIdx from, NodeIdx to, long long capacity,
               long long cost);

  struct Result {
    long long flow = 0;
    long long cost = 0;
  };

  /// Work telemetry for one solve(), reset at every solve entry.
  /// `classes` is not the solver's to know — the planner stamps it
  /// after copying (see GreenMatchPolicy); everything else is filled
  /// here. Counting happens in registers inside the Dijkstra loops and
  /// is folded into this struct once per Dijkstra run, so the overhead
  /// on BM_GreenMatchPlanDay stays in the noise.
  struct SolveStats {
    int nodes = 0;                ///< network nodes
    std::uint64_t arcs = 0;       ///< externally added arcs
    std::uint64_t classes = 0;    ///< task classes (planner-stamped)
    std::uint64_t dijkstra_runs = 0;
    std::uint64_t dijkstra_pops = 0;         ///< heap pops
    std::uint64_t dijkstra_relaxations = 0;  ///< residual arcs scanned
    std::uint64_t augmenting_paths = 0;
    bool warm = false;            ///< warm potentials accepted
    /// Bytes of solver scratch held across solves (the reset() arena):
    /// adjacency storage, potentials, labels and heap.
    std::uint64_t arena_bytes = 0;
  };

  const SolveStats& last_stats() const { return last_stats_; }
  /// The planner stamps fields the solver cannot know (class count).
  SolveStats& mutable_last_stats() { return last_stats_; }

  /// Sends up to `max_flow` units from s to t at minimum total cost.
  Result solve(NodeIdx s, NodeIdx t, long long max_flow = LLONG_MAX / 4);

  /// Warm-started solve: seeds the Johnson potentials from
  /// `warm_potentials` (one entry per node) instead of zero. The seed
  /// is accepted only if every residual edge keeps a non-negative
  /// reduced cost under it — checked in O(E) up front; a violation (or
  /// a size mismatch) falls back to the zero initialization, which is
  /// always valid for non-negative edge costs. Either way the result
  /// is a true minimum-cost flow; warm_accepts()/warm_rejects() report
  /// which path was taken.
  Result solve(NodeIdx s, NodeIdx t, long long max_flow,
               const std::vector<long long>& warm_potentials);

  /// Johnson potentials after the last solve(); index = node. Feed
  /// them (possibly shifted/clamped by the caller) into the next
  /// solve's warm start.
  const std::vector<long long>& potentials() const { return potential_; }

  /// Warm-start bookkeeping across the lifetime of this instance.
  std::uint64_t warm_accepts() const { return warm_accepts_; }
  std::uint64_t warm_rejects() const { return warm_rejects_; }

  /// Flow currently on edge `edge_index` (after solve).
  long long flow_on(int edge_index) const;

  int node_count() const { return static_cast<int>(graph_.size()); }

 private:
  struct Edge {
    NodeIdx to;
    long long capacity;  ///< residual capacity
    long long cost;
    int rev;  ///< index of reverse edge in graph_[to]
  };

  Result run_ssp(NodeIdx s, NodeIdx t, long long max_flow);
  bool dijkstra(NodeIdx s, NodeIdx t);
  /// Resets last_stats_ and fills the per-solve network/arena fields.
  void begin_stats(bool warm);
  std::uint64_t arena_bytes() const;
  /// True iff every residual (capacity > 0) edge has non-negative
  /// reduced cost under `pot`.
  bool potentials_valid(const std::vector<long long>& pot) const;

  std::vector<std::vector<Edge>> graph_;
  /// (node, edge list index) of each externally added edge.
  std::vector<std::pair<NodeIdx, int>> edge_refs_;

  std::uint64_t warm_accepts_ = 0;
  std::uint64_t warm_rejects_ = 0;
  SolveStats last_stats_;

  // Solver scratch, reused across solve() calls (see reset()).
  std::vector<long long> potential_;
  std::vector<long long> dist_;
  std::vector<int> prev_node_;
  std::vector<int> prev_edge_;
  std::vector<std::pair<long long, NodeIdx>> heap_;
};

}  // namespace gm::core
