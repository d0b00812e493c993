#include "graph/generators.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/grid_coords.hpp"

namespace cobra::graph {

Graph make_path(std::uint32_t n) {
  if (n < 1) throw std::invalid_argument("make_path: n >= 1");
  GraphBuilder b(n);
  b.reserve(n - 1);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph make_cycle(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("make_cycle: n >= 3");
  GraphBuilder b(n);
  b.reserve(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  b.add_edge(n - 1, 0);
  return b.build();
}

Graph make_complete(std::uint32_t n) {
  if (n < 1) throw std::invalid_argument("make_complete: n >= 1");
  GraphBuilder b(n);
  b.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

Graph make_star(std::uint32_t n) {
  if (n < 2) throw std::invalid_argument("make_star: n >= 2");
  GraphBuilder b(n);
  b.reserve(n - 1);
  for (Vertex v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

Graph make_grid(std::uint32_t dimensions, std::uint32_t side, bool torus) {
  if (dimensions < 1) throw std::invalid_argument("make_grid: dimensions >= 1");
  if (side < 2) throw std::invalid_argument("make_grid: side >= 2");
  const GridCoords coords(dimensions, side);
  const std::uint32_t n = coords.num_points();

  GraphBuilder b(n);
  b.reserve(static_cast<std::size_t>(n) * dimensions);
  std::vector<std::uint32_t> c(dimensions, 0);
  for (Vertex v = 0; v < n; ++v) {
    // Emit the +1 edge along every axis; the -1 edges are emitted by the
    // lower-coordinate endpoint, so each undirected edge appears once.
    for (std::uint32_t axis = 0; axis < dimensions; ++axis) {
      if (c[axis] + 1 < side) {
        b.add_edge(v, static_cast<Vertex>(v + coords.stride(axis)));
      } else if (torus && side > 2) {
        // Wrap edge from the last point back to coordinate 0. side == 2
        // is excluded: the wrap edge would duplicate the +1 edge.
        b.add_edge(v, static_cast<Vertex>(
                          v - (static_cast<std::uint64_t>(side) - 1) *
                                  coords.stride(axis)));
      }
    }
    // Increment mixed-radix counter (row-major: last axis fastest).
    for (std::uint32_t axis = dimensions; axis-- > 0;) {
      if (++c[axis] < side) break;
      c[axis] = 0;
    }
  }
  return b.build();
}

Graph make_hypercube(std::uint32_t dimensions) {
  if (dimensions < 1 || dimensions > 31) {
    throw std::invalid_argument("make_hypercube: 1 <= dimensions <= 31");
  }
  const std::uint32_t n = 1u << dimensions;
  GraphBuilder b(n);
  b.reserve(static_cast<std::size_t>(n) * dimensions / 2);
  for (Vertex v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < dimensions; ++bit) {
      const Vertex u = v ^ (1u << bit);
      if (v < u) b.add_edge(v, u);
    }
  }
  return b.build();
}

Graph make_kary_tree(std::uint32_t arity, std::uint32_t levels) {
  if (arity < 1) throw std::invalid_argument("make_kary_tree: arity >= 1");
  if (levels < 1) throw std::invalid_argument("make_kary_tree: levels >= 1");
  // n = 1 + k + k^2 + ... + k^(levels-1)
  std::uint64_t n = 0, layer = 1;
  for (std::uint32_t l = 0; l < levels; ++l) {
    n += layer;
    layer *= arity;
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "make_kary_tree: tree exceeds 2^32 - 1 vertices");
    }
  }
  const auto total = static_cast<std::uint32_t>(n);
  GraphBuilder b(total);
  b.reserve(total - 1);
  // In BFS order, the children of vertex v are arity*v + 1 ... arity*v + arity.
  for (Vertex v = 0; v < total; ++v) {
    for (std::uint32_t c = 1; c <= arity; ++c) {
      const std::uint64_t child = static_cast<std::uint64_t>(arity) * v + c;
      if (child >= total) break;
      b.add_edge(v, static_cast<Vertex>(child));
    }
  }
  return b.build();
}

Graph make_lollipop(std::uint32_t clique_size, std::uint32_t path_length) {
  if (clique_size < 2) throw std::invalid_argument("make_lollipop: clique >= 2");
  const std::uint32_t n = clique_size + path_length;
  GraphBuilder b(n);
  for (Vertex u = 0; u < clique_size; ++u) {
    for (Vertex v = u + 1; v < clique_size; ++v) b.add_edge(u, v);
  }
  // Path hangs off the last clique vertex.
  for (Vertex v = clique_size; v < n; ++v) b.add_edge(v - 1, v);
  return b.build();
}

Graph make_barbell(std::uint32_t clique_size, std::uint32_t path_length) {
  if (clique_size < 2) throw std::invalid_argument("make_barbell: clique >= 2");
  const std::uint32_t n = 2 * clique_size + path_length;
  GraphBuilder b(n);
  // Left clique on [0, clique_size), right clique on [clique_size + path,
  // n); the path occupies the middle ids.
  for (Vertex u = 0; u < clique_size; ++u) {
    for (Vertex v = u + 1; v < clique_size; ++v) b.add_edge(u, v);
  }
  const Vertex right_base = clique_size + path_length;
  for (Vertex u = right_base; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  // Chain: last left-clique vertex - path vertices - first right-clique vertex.
  Vertex prev = clique_size - 1;
  for (Vertex v = clique_size; v < right_base; ++v) {
    b.add_edge(prev, v);
    prev = v;
  }
  b.add_edge(prev, right_base);
  return b.build();
}

Graph make_double_clique(std::uint32_t clique_size) {
  if (clique_size < 2) throw std::invalid_argument("make_double_clique: size >= 2");
  const std::uint32_t n = 2 * clique_size - 1;  // shared cut vertex
  GraphBuilder b(n);
  const Vertex cut = clique_size - 1;
  for (Vertex u = 0; u <= cut; ++u) {
    for (Vertex v = u + 1; v <= cut; ++v) b.add_edge(u, v);
  }
  for (Vertex u = cut; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

}  // namespace cobra::graph
