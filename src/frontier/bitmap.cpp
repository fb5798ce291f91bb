#include "frontier/bitmap.hpp"

#include <bit>

#include "support/parallel.hpp"

namespace thrifty::frontier {

void Bitmap::clear() {
  const auto zero = [this](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      words_[i].store(0, std::memory_order_relaxed);
    }
  };
  // Serial below ~2 MiB: the parallel-region overhead beats any
  // placement or bandwidth win on small frontiers, which clear every
  // iteration.
  constexpr std::size_t kParallelWords = std::size_t{1} << 18;
  if (words_.size() < kParallelWords) {
    zero(0, words_.size());
    return;
  }
  support::parallel_region([&](int t, int threads) {
    const auto [begin, end] =
        support::thread_slice(words_.size(), t, threads);
    zero(begin, end);
  });
}

std::uint64_t Bitmap::count() const {
  std::uint64_t total = 0;
#pragma omp parallel reduction(+ : total)
  {
    const auto [begin, end] = support::thread_slice(
        words_.size(), support::thread_id(), omp_get_num_threads());
    for (std::size_t i = begin; i < end; ++i) {
      total += static_cast<std::uint64_t>(
          std::popcount(words_[i].load(std::memory_order_relaxed)));
    }
  }
  return total;
}

}  // namespace thrifty::frontier
