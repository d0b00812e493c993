#include "core/cover_time.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/parallel_walks.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"

namespace cobra::core {

CoverageTracker::CoverageTracker(std::uint32_t num_vertices)
    : words_((static_cast<std::size_t>(num_vertices) + 63) / 64, 0),
      n_(num_vertices) {}

std::uint32_t CoverageTracker::absorb(std::span<const Vertex> active) {
  std::uint32_t newly = 0;
  for (const Vertex v : active) {
    std::uint64_t& word = words_[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++newly;
    }
  }
  count_ += newly;
  return newly;
}

std::uint32_t CoverageTracker::absorb(std::span<const std::uint64_t> words) {
  assert(words.size() == words_.size());
  std::uint32_t newly = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    newly += static_cast<std::uint32_t>(std::popcount(words[w] & ~words_[w]));
    words_[w] |= words[w];
  }
  count_ += newly;
  return newly;
}

void CoverageTracker::reset() {
  words_.assign(words_.size(), 0);
  count_ = 0;
}

std::vector<std::uint8_t> CoverageTracker::raw() const {
  std::vector<std::uint8_t> bytes(n_);
  for (Vertex v = 0; v < n_; ++v) bytes[v] = is_covered(v) ? 1 : 0;
  return bytes;
}

void CoverageTracker::restore_raw(std::span<const std::uint8_t> bytes) {
  n_ = static_cast<std::uint32_t>(bytes.size());
  words_.assign((bytes.size() + 63) / 64, 0);
  count_ = 0;
  for (std::size_t v = 0; v < bytes.size(); ++v) {
    if (bytes[v] == 0) continue;
    words_[v >> 6] |= std::uint64_t{1} << (v & 63);
    ++count_;
  }
}

std::uint64_t default_step_budget(std::uint32_t num_vertices) {
  // Worst case for simple RW cover is Θ(n^3); pad by 32x and floor the
  // budget so tiny graphs aren't budget-bound either.
  const auto n = static_cast<std::uint64_t>(num_vertices);
  const std::uint64_t cubic = 32 * n * n * n;
  return cubic < 1u << 20 ? 1u << 20 : cubic;
}

namespace {

std::uint64_t budget_or_default(std::uint64_t max_steps, const Graph& g) {
  return max_steps == 0 ? default_step_budget(g.num_vertices()) : max_steps;
}

}  // namespace

CoverResult cobra_cover(const Graph& g, Vertex start, std::uint32_t branching,
                        Engine& gen, std::uint64_t max_steps) {
  CobraWalk walk(g, start, branching);
  return run_to_cover(walk, gen, budget_or_default(max_steps, g));
}

CoverResult random_walk_cover(const Graph& g, Vertex start, Engine& gen,
                              std::uint64_t max_steps) {
  RandomWalk walk(g, start);
  return run_to_cover(walk, gen, budget_or_default(max_steps, g));
}

CoverResult gossip_push_cover(const Graph& g, Vertex start, Engine& gen,
                              std::uint64_t max_steps) {
  Gossip gossip(g, start, GossipMode::Push);
  return run_to_cover(gossip, gen, budget_or_default(max_steps, g));
}

CoverResult parallel_walks_cover(const Graph& g, Vertex start,
                                 std::uint32_t walkers, Engine& gen,
                                 std::uint64_t max_steps) {
  ParallelWalks walks(g, start, walkers);
  return run_to_cover(walks, gen, budget_or_default(max_steps, g));
}

CoverResult walt_cover(const Graph& g, Vertex start, std::uint32_t pebbles,
                       bool lazy, Engine& gen, std::uint64_t max_steps) {
  Walt walt(g, start, pebbles, lazy);
  return run_to_cover(walt, gen, budget_or_default(max_steps, g));
}

}  // namespace cobra::core
