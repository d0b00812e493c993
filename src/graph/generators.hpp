#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file generators.hpp
/// The deterministic graph families the paper's claims touch, plus the
/// standard extremal examples used as baselines:
///
///   * grids [0, n]^d and tori            — Theorem 3 / Lemma 2 (E1)
///   * hypercube                          — Theorem 8 / Corollary 9 (E2)
///   * cycle                              — Theorem 15 hitting times (E4)
///   * lollipop, barbell                  — RW worst case Θ(n^3) (E5)
///   * k-ary trees, star                  — §3 remark / §6 (E9)
///   * double clique                      — low-conductance stress case
///   * path, complete                     — degenerate baselines for tests
///
/// Random families (random regular, G(n,p), Chung–Lu, Barabási–Albert,
/// geometric, ...) live in src/gen: build them with a spec through
/// gen::build_graph or call the gen/families.hpp function directly.
/// All generators here return connected graphs.

namespace cobra::graph {

/// Path P_n: 0-1-2-...-(n-1). n >= 1.
[[nodiscard]] Graph make_path(std::uint32_t n);

/// Cycle C_n, the 2-regular graph. n >= 3.
[[nodiscard]] Graph make_cycle(std::uint32_t n);

/// Complete graph K_n. n >= 1.
[[nodiscard]] Graph make_complete(std::uint32_t n);

/// Star S_n: vertex 0 is the hub, 1..n-1 are leaves. n >= 2.
[[nodiscard]] Graph make_star(std::uint32_t n);

/// d-dimensional grid with `side` points per axis — the paper's [0, n]^d
/// has side = n + 1. `torus` wraps every axis (making it 2d-regular).
/// Requires dimensions >= 1, side >= 2, side^dimensions < 2^32.
[[nodiscard]] Graph make_grid(std::uint32_t dimensions, std::uint32_t side,
                              bool torus = false);

/// Hypercube Q_d on 2^d vertices; d-regular with conductance Θ(1/d).
/// Requires 1 <= dimensions <= 31.
[[nodiscard]] Graph make_hypercube(std::uint32_t dimensions);

/// Complete k-ary tree with `levels` levels (a single root is levels = 1).
/// k >= 1, at most 2^32 - 1 vertices. Vertex 0 is the root; vertices are
/// in BFS order.
[[nodiscard]] Graph make_kary_tree(std::uint32_t arity, std::uint32_t levels);

/// Lollipop graph: a clique on `clique_size` vertices with a path of
/// `path_length` extra vertices hanging off vertex clique_size-1. With
/// clique_size = 2n/3 and path_length = n/3 this is the standard witness
/// that simple-random-walk cover time is Θ(n^3). clique_size >= 2.
[[nodiscard]] Graph make_lollipop(std::uint32_t clique_size,
                                  std::uint32_t path_length);

/// Barbell: two cliques of `clique_size` joined by a path of `path_length`
/// intermediate vertices (0 joins them directly). clique_size >= 2.
[[nodiscard]] Graph make_barbell(std::uint32_t clique_size,
                                 std::uint32_t path_length);

/// Two cliques of size `clique_size` sharing a single cut vertex — a low
/// conductance, non-regular stress case for the general-graph bound.
[[nodiscard]] Graph make_double_clique(std::uint32_t clique_size);

}  // namespace cobra::graph
