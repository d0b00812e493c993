#include "sim/stop.hpp"

#include <bit>
#include <cassert>

namespace cobra::sim {

CoverageTracker::CoverageTracker(std::uint32_t num_vertices)
    : words_((static_cast<std::size_t>(num_vertices) + 63) / 64, 0),
      n_(num_vertices) {}

std::uint32_t CoverageTracker::absorb(std::span<const core::Vertex> active) {
  std::uint32_t newly = 0;
  for (const core::Vertex v : active) {
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
  for (core::Vertex v = 0; v < n_; ++v) bytes[v] = is_covered(v) ? 1 : 0;
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

}  // namespace cobra::sim
