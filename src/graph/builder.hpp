#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace cobra::par {
class ThreadPool;
}  // namespace cobra::par

/// \file builder.hpp
/// The one CSR compile, `compile_csr`, and the mutable edge-list
/// accumulator that feeds it. Every Graph is built here: the deterministic
/// families through GraphBuilder, the random ones (src/gen) by handing
/// their per-chunk edge lists to compile_csr directly. Either way the
/// symmetric arc arrays come out with every adjacency list sorted.

namespace cobra::graph {

using Edge = std::pair<Vertex, Vertex>;

/// Compile undirected edge lists, read in order, into CSR: count degrees,
/// scatter both arcs of every edge, sort each row. Each edge {u, v} becomes
/// arcs u->v and v->u; a self-loop {v, v} becomes two arcs v->v (degree
/// +2), matching the vol(V) = 2|E| convention.
///
/// With `simplify`, self-loops are skipped and each sorted row is reduced
/// to its distinct neighbours, then the rows are compacted in place. The
/// result is the simple graph on the edge set, independent of the order
/// and orientation in which edges were listed.
///
/// `pool` spreads the row sorts over its workers in fixed vertex ranges;
/// rows are independent, so the result does not depend on it. nullptr
/// runs everything on the calling thread.
[[nodiscard]] Graph compile_csr(std::uint32_t n,
                                std::span<const std::vector<Edge>> edge_lists,
                                bool simplify,
                                par::ThreadPool* pool = nullptr);

class GraphBuilder {
 public:
  explicit GraphBuilder(std::uint32_t num_vertices);

  /// Record the undirected edge {u, v}. Self-loops (u == v) are allowed at
  /// this stage. Out-of-range endpoints throw std::invalid_argument.
  void add_edge(Vertex u, Vertex v);

  /// Reserve space for `num_edges` undirected edges.
  void reserve(std::size_t num_edges);

  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Compile into a CSR Graph (compile_csr, serial). By default edges are
  /// kept as given: parallel edges repeat and a self-loop is two arcs.
  /// With `simplify`, the result is the simple graph on the edge set
  /// (self-loops and repeats dropped, in either orientation). The builder
  /// remains usable.
  [[nodiscard]] Graph build(bool simplify = false) const;

  /// The raw undirected edge list (tests use this).
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }

 private:
  std::uint32_t n_;
  std::vector<Edge> edges_;
};

}  // namespace cobra::graph
