#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace cobra::graph {

namespace {

/// Rows per row-sort task. Scheduling only: every row is sorted (and
/// deduplicated) on its own, so the CSR does not depend on this. Small,
/// because skewed families (rmat) put their hubs at the lowest ids.
constexpr std::size_t kRowsPerSortRange = 1u << 10;

}  // namespace

Graph compile_csr(std::uint32_t n, std::span<const std::vector<Edge>> edge_lists,
                  bool simplify, par::ThreadPool* pool) {
  // Count: each endpoint gains one arc; a kept self-loop gains two.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& list : edge_lists) {
    for (const auto& [u, v] : list) {
      if (simplify && u == v) continue;
      ++offsets[static_cast<std::size_t>(u) + 1];
      ++offsets[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  // Scatter with offsets[v] as v's cursor; afterwards offsets[v] is the end
  // of row v, so shifting the array one slot right restores the starts.
  std::vector<Vertex> targets(offsets.back());
  for (const auto& list : edge_lists) {
    for (const auto& [u, v] : list) {
      if (simplify && u == v) continue;
      targets[offsets[u]++] = v;
      targets[offsets[v]++] = u;
    }
  }
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

  // Sort each row: deterministic layout, better locality, and binary-search
  // adjacency checks downstream. Simplifying also dedups each row and
  // records how many distinct neighbours it kept.
  std::vector<std::uint32_t> kept(simplify ? n : 0);
  const auto sort_rows = [&](std::size_t, std::size_t range) {
    const std::size_t lo = range * kRowsPerSortRange;
    const std::size_t hi = std::min<std::size_t>(n, lo + kRowsPerSortRange);
    for (std::size_t v = lo; v < hi; ++v) {
      const auto first = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
      const auto last = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
      std::sort(first, last);
      if (simplify) {
        kept[v] = static_cast<std::uint32_t>(std::unique(first, last) - first);
      }
    }
  };
  const std::size_t ranges = (n + kRowsPerSortRange - 1) / kRowsPerSortRange;
  if (pool != nullptr) {
    par::parallel_for_chunks(*pool, ranges, pool->size(), sort_rows);
  } else {
    for (std::size_t r = 0; r < ranges; ++r) sort_rows(0, r);
  }

  if (simplify) {
    // Compact in place: rows ascend, so each row's new start is at or
    // before its old one and the copy never overwrites unread entries.
    EdgeIndex write = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const EdgeIndex start = offsets[v];
      offsets[v] = write;
      if (write != start) {
        std::copy(targets.begin() + static_cast<std::ptrdiff_t>(start),
                  targets.begin() + static_cast<std::ptrdiff_t>(start + kept[v]),
                  targets.begin() + static_cast<std::ptrdiff_t>(write));
      }
      write += kept[v];
    }
    offsets[n] = write;
    targets.resize(write);
  }

  return Graph(n, std::move(offsets), std::move(targets));
}

GraphBuilder::GraphBuilder(std::uint32_t num_vertices) : n_(num_vertices) {}

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument("GraphBuilder: endpoint out of range");
  }
  edges_.emplace_back(u, v);
}

void GraphBuilder::reserve(std::size_t num_edges) { edges_.reserve(num_edges); }

Graph GraphBuilder::build(bool simplify) const {
  return compile_csr(n_, std::span<const std::vector<Edge>>(&edges_, 1),
                     simplify);
}

}  // namespace cobra::graph
