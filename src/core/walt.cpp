#include "core/walt.hpp"

#include <stdexcept>

namespace cobra::core {

Walt::Walt(const Graph& g, Vertex start, std::uint32_t pebbles, bool lazy)
    : Walt(g, std::vector<Vertex>(pebbles, start), lazy) {}

Walt::Walt(const Graph& g, std::span<const Vertex> starts, bool lazy)
    : g_(&g),
      lazy_(lazy),
      positions_(starts.begin(), starts.end()),
      arrivals_(g.num_vertices(), 0),
      dest0_(g.num_vertices(), 0),
      dest1_(g.num_vertices(), 0) {
  if (positions_.empty()) throw std::invalid_argument("Walt: needs >= 1 pebble");
  if (g.num_vertices() == 0) throw std::invalid_argument("Walt: empty graph");
  if (g.min_degree() == 0) {
    throw std::invalid_argument("Walt: graph has an isolated vertex");
  }
  for (const Vertex v : positions_) {
    if (v >= g.num_vertices()) throw std::out_of_range("Walt: start out of range");
  }
  occupied_.reserve(positions_.size());
  rebuild_occupied();
}

void Walt::reset(Vertex start) {
  positions_.assign(positions_.size(), start);
  round_ = 0;
  lazy_skips_ = 0;
  rebuild_occupied();
}

void Walt::reset(std::span<const Vertex> starts) {
  if (starts.size() != positions_.size()) {
    throw std::invalid_argument("Walt::reset: pebble count is fixed");
  }
  for (const Vertex v : starts) {
    if (v >= g_->num_vertices()) {
      throw std::out_of_range("Walt::reset: start out of range");
    }
  }
  positions_.assign(starts.begin(), starts.end());
  round_ = 0;
  lazy_skips_ = 0;
  rebuild_occupied();
}

// occupied_ lists the distinct positions in first-occurrence order. The
// arrival counters double as the membership marks, and are zeroed again
// through the list they built.
void Walt::rebuild_occupied() {
  occupied_.clear();
  for (const Vertex v : positions_) {
    if (arrivals_[v] == 0) {
      arrivals_[v] = 1;
      occupied_.push_back(v);
    }
  }
  for (const Vertex v : occupied_) arrivals_[v] = 0;
}

void Walt::step(Engine& gen) {
  ++round_;
  if (lazy_ && rng::coin_flip(gen)) {
    ++lazy_skips_;
    return;  // whole configuration freezes this round
  }

  // One pass over pebbles in id order (ids are the total order). For each
  // source vertex we record how many pebbles have been processed there this
  // round and the destinations of the first two; pebble #3+ flips a fair
  // coin between those two destinations (rule 2).
  for (Vertex& pos : positions_) {
    const Vertex v = pos;
    const std::uint32_t slot = arrivals_[v]++;
    if (slot == 0) {
      dest0_[v] = random_neighbor(*g_, v, gen);
      pos = dest0_[v];
    } else if (slot == 1) {
      dest1_[v] = random_neighbor(*g_, v, gen);
      pos = dest1_[v];
    } else {
      pos = rng::coin_flip(gen) ? dest0_[v] : dest1_[v];
    }
  }
  // Note on rule 1 vs rule 2: with exactly two pebbles at v the behaviour
  // of both rules coincides (each of the first two movers is independent),
  // so the single pass needs no occupancy pre-count.
  //
  // occupied_ still lists this round's source vertices: exactly the
  // counters the pass set.
  for (const Vertex v : occupied_) arrivals_[v] = 0;
  rebuild_occupied();
}

}  // namespace cobra::core
