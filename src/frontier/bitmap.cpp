#include "frontier/bitmap.hpp"

#include <bit>

#include "support/parallel.hpp"

namespace thrifty::frontier {

void Bitmap::clear() {
  support::parallel_for(words_.size(), [&](std::size_t i) {
    words_[i].store(0, std::memory_order_relaxed);
  });
}

std::uint64_t Bitmap::count() const {
  return support::parallel_sum(words_.size(), [&](std::size_t i) {
    return std::popcount(words_[i].load(std::memory_order_relaxed));
  });
}

}  // namespace thrifty::frontier
