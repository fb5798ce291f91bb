#include "support/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>

#include "support/prefetch.hpp"
#include "support/run_config.hpp"

// The vector variants are x86-64 only and compiled with per-function
// target attributes so the default architecture of the rest of the
// binary is untouched.  Under ThreadSanitizer they are never selected
// (see max_supported), so they are compiled out entirely to keep the
// instrumented build honest.
#if defined(__SANITIZE_THREAD__)
#define THRIFTY_SIMD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define THRIFTY_SIMD_TSAN 1
#endif
#endif

#if defined(__x86_64__) && !defined(THRIFTY_SIMD_TSAN) && \
    (defined(__GNUC__) || defined(__clang__))
#define THRIFTY_SIMD_X86 1
#include <immintrin.h>
#endif

namespace thrifty::support {

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAuto:
      break;
  }
  return "auto";
}

std::optional<SimdLevel> parse_simd_level(std::string_view text) {
  if (text == "auto") return SimdLevel::kAuto;
  if (text == "scalar") return SimdLevel::kScalar;
  if (text == "avx2") return SimdLevel::kAvx2;
  if (text == "avx512") return SimdLevel::kAvx512;
  return std::nullopt;
}

namespace simd {

namespace {

// Relaxed tagged accesses for words other threads update concurrently
// (label arrays mid-iteration, bitmap words).  On x86 these compile to
// the same plain movs the vector paths use, so scalar and vector
// variants stay bit-identical; the tag is what keeps the scalar path —
// the only path under ThreadSanitizer — clean under instrumentation.
inline std::uint32_t relaxed_load(const std::uint32_t& slot) {
  return std::atomic_ref<const std::uint32_t>(slot).load(
      std::memory_order_relaxed);
}
inline void relaxed_store(std::uint32_t& slot, std::uint32_t value) {
  std::atomic_ref<std::uint32_t>(slot).store(value,
                                             std::memory_order_relaxed);
}
inline std::uint64_t relaxed_load(const std::uint64_t& slot) {
  return std::atomic_ref<const std::uint64_t>(slot).load(
      std::memory_order_relaxed);
}
inline void relaxed_store(std::uint64_t& slot, std::uint64_t value) {
  std::atomic_ref<std::uint64_t>(slot).store(value,
                                             std::memory_order_relaxed);
}

// -------------------------------------------------------------------
// Scalar reference variants.  Every vector variant below must return
// exactly these bytes.

std::uint32_t min_gather_scalar(const std::uint32_t* values,
                                const std::uint32_t* indices,
                                std::size_t count, std::uint32_t init,
                                bool stop_at_zero) {
  std::uint32_t best = init;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kPrefetchDistance < count) {
      prefetch_read(values + indices[i + kPrefetchDistance]);
    }
    const std::uint32_t v = relaxed_load(values[indices[i]]);
    if (v < best) {
      best = v;
      if (stop_at_zero && best == 0) break;
    }
  }
  return best;
}

std::uint64_t count_equal_scalar(const std::uint32_t* a,
                                 const std::uint32_t* b,
                                 std::size_t count) {
  std::uint64_t equal = 0;
  for (std::size_t i = 0; i < count; ++i) {
    equal += (a[i] == b[i]) ? 1 : 0;
  }
  return equal;
}

std::uint64_t popcount_scalar(const std::uint64_t* words,
                              std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    total += static_cast<std::uint64_t>(
        std::popcount(relaxed_load(words[i])));
  }
  return total;
}

void fill_zero_scalar(std::uint64_t* words, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) relaxed_store(words[i], 0);
}

void copy_scalar(std::uint32_t* dst, const std::uint32_t* src,
                 std::size_t count) {
  if (count > 0) std::memcpy(dst, src, count * sizeof(std::uint32_t));
}

/// One grandparent sweep over [begin, end); returns whether any entry
/// changed.  Entries are read-then-written per element, so a sweep may
/// observe updates made earlier in the same sweep — harmless, because
/// flatten loops to the (order-independent) pointer-jump fixed point.
bool shortcut_sweep(std::uint32_t* parent, std::size_t begin,
                    std::size_t end) {
  bool changed = false;
  for (std::size_t v = begin; v < end; ++v) {
    const std::uint32_t p = relaxed_load(parent[v]);
    const std::uint32_t g = relaxed_load(parent[p]);
    if (g < p) {
      relaxed_store(parent[v], g);
      changed = true;
    }
  }
  return changed;
}

#if defined(THRIFTY_SIMD_X86)

// -------------------------------------------------------------------
// AVX2 variants (8 × u32 lanes, 4 × u64 lanes).

__attribute__((target("avx2"))) std::uint32_t min_gather_avx2(
    const std::uint32_t* values, const std::uint32_t* indices,
    std::size_t count, std::uint32_t init, bool stop_at_zero) {
  std::size_t i = 0;
  std::uint32_t best = init;
  if (count >= 8) {
    __m256i acc = _mm256_set1_epi32(static_cast<int>(init));
    const __m256i zero = _mm256_setzero_si256();
    for (; i + 8 <= count; i += 8) {
      if (i + 64 <= count) {
        prefetch_read(indices + i + 48);
      }
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(indices + i));
      const __m256i gathered = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(values), idx, 4);
      acc = _mm256_min_epu32(acc, gathered);
      if (stop_at_zero &&
          _mm256_movemask_epi8(_mm256_cmpeq_epi32(gathered, zero)) != 0) {
        i += 8;
        break;
      }
    }
    __m128i m = _mm_min_epu32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    m = _mm_min_epu32(m, _mm_shuffle_epi32(m, 0x4e));
    m = _mm_min_epu32(m, _mm_shuffle_epi32(m, 0xb1));
    best = static_cast<std::uint32_t>(_mm_cvtsi128_si32(m));
    if (stop_at_zero && best == 0) return 0;
  }
  for (; i < count; ++i) {
    const std::uint32_t v = values[indices[i]];
    if (v < best) {
      best = v;
      if (stop_at_zero && best == 0) break;
    }
  }
  return best;
}

__attribute__((target("avx2"))) std::uint64_t count_equal_avx2(
    const std::uint32_t* a, const std::uint32_t* b, std::size_t count) {
  std::size_t i = 0;
  std::uint64_t equal = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(va, vb)));
    equal += static_cast<std::uint64_t>(
        std::popcount(static_cast<unsigned>(mask)));
  }
  for (; i < count; ++i) equal += (a[i] == b[i]) ? 1 : 0;
  return equal;
}

/// Positional popcount via the 4-bit nibble lookup (Muła): two PSHUFB
/// table lookups and a SAD accumulate per 32-byte block.
__attribute__((target("avx2"))) std::uint64_t popcount_avx2(
    const std::uint64_t* words, std::size_t count) {
  std::size_t i = 0;
  std::uint64_t total = 0;
  if (count >= 4) {
    const __m256i table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    for (; i + 4 <= count; i += 4) {
      const __m256i w = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + i));
      const __m256i lo = _mm256_and_si256(w, low_mask);
      const __m256i hi =
          _mm256_and_si256(_mm256_srli_epi32(w, 4), low_mask);
      const __m256i counts = _mm256_add_epi8(
          _mm256_shuffle_epi8(table, lo), _mm256_shuffle_epi8(table, hi));
      acc = _mm256_add_epi64(acc,
                             _mm256_sad_epu8(counts, _mm256_setzero_si256()));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  for (; i < count; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return total;
}

__attribute__((target("avx2"))) void fill_zero_avx2(std::uint64_t* words,
                                                    std::size_t count) {
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + i), zero);
  }
  for (; i < count; ++i) words[i] = 0;
}

__attribute__((target("avx2"))) void copy_avx2(std::uint32_t* dst,
                                               const std::uint32_t* src,
                                               std::size_t count) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  for (; i < count; ++i) dst[i] = src[i];
}

// -------------------------------------------------------------------
// AVX-512 variants (16 × u32 lanes, 8 × u64 lanes).  Only AVX-512F is
// assumed; the VPOPCNTDQ popcount probes its own feature bit and falls
// back to the AVX2 lookup otherwise.
//
// GCC implements several 512-bit intrinsics (set1, the reduce family)
// through _mm512_undefined_epi32, whose self-initialised temporary
// trips -W(maybe-)uninitialized from the instantiating function; the
// values are fully overwritten before use, so silence the false
// positive for this section only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

__attribute__((target("avx512f"))) std::uint32_t min_gather_avx512(
    const std::uint32_t* values, const std::uint32_t* indices,
    std::size_t count, std::uint32_t init, bool stop_at_zero) {
  std::size_t i = 0;
  std::uint32_t best = init;
  if (count >= 16) {
    __m512i acc = _mm512_set1_epi32(static_cast<int>(init));
    for (; i + 16 <= count; i += 16) {
      if (i + 128 <= count) {
        prefetch_read(indices + i + 96);
      }
      const __m512i idx =
          _mm512_loadu_si512(static_cast<const void*>(indices + i));
      // Full-mask gather with an explicit source register: GCC's plain
      // _mm512_i32gather_epi32 expands through an undefined value and
      // trips -Wmaybe-uninitialized.
      const __m512i gathered = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), 0xffff, idx, values, 4);
      acc = _mm512_min_epu32(acc, gathered);
      if (stop_at_zero &&
          _mm512_cmpeq_epi32_mask(gathered, _mm512_setzero_si512()) != 0) {
        i += 16;
        break;
      }
    }
    best = _mm512_reduce_min_epu32(acc);
    if (stop_at_zero && best == 0) return 0;
  }
  for (; i < count; ++i) {
    const std::uint32_t v = values[indices[i]];
    if (v < best) {
      best = v;
      if (stop_at_zero && best == 0) break;
    }
  }
  return best;
}

__attribute__((target("avx512f"))) std::uint64_t count_equal_avx512(
    const std::uint32_t* a, const std::uint32_t* b, std::size_t count) {
  std::size_t i = 0;
  std::uint64_t equal = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i va = _mm512_loadu_si512(static_cast<const void*>(a + i));
    const __m512i vb = _mm512_loadu_si512(static_cast<const void*>(b + i));
    equal += static_cast<std::uint64_t>(
        std::popcount(static_cast<unsigned>(
            _mm512_cmpeq_epi32_mask(va, vb))));
  }
  for (; i < count; ++i) equal += (a[i] == b[i]) ? 1 : 0;
  return equal;
}

bool has_vpopcntdq() {
  static const bool supported =
      __builtin_cpu_supports("avx512vpopcntdq") != 0;
  return supported;
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::uint64_t
popcount_avx512(const std::uint64_t* words, std::size_t count) {
  std::size_t i = 0;
  __m512i acc = _mm512_setzero_si512();
  for (; i + 8 <= count; i += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(
                 _mm512_loadu_si512(static_cast<const void*>(words + i))));
  }
  std::uint64_t total =
      static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < count; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return total;
}

__attribute__((target("avx512f"))) void fill_zero_avx512(
    std::uint64_t* words, std::size_t count) {
  std::size_t i = 0;
  const __m512i zero = _mm512_setzero_si512();
  for (; i + 8 <= count; i += 8) {
    _mm512_storeu_si512(static_cast<void*>(words + i), zero);
  }
  for (; i < count; ++i) words[i] = 0;
}

__attribute__((target("avx512f"))) void copy_avx512(
    std::uint32_t* dst, const std::uint32_t* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    _mm512_storeu_si512(
        static_cast<void*>(dst + i),
        _mm512_loadu_si512(static_cast<const void*>(src + i)));
  }
  for (; i < count; ++i) dst[i] = src[i];
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // THRIFTY_SIMD_X86

}  // namespace

SimdLevel max_supported() {
  static const SimdLevel level = [] {
#if defined(THRIFTY_SIMD_X86)
    if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return level;
}

SimdLevel effective_level() {
  const SimdLevel supported = max_supported();
  const SimdLevel request = run_config().simd;
  if (request == SimdLevel::kAuto || request == supported) return supported;
  if (static_cast<int>(request) < static_cast<int>(supported)) {
    return request;
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "thrifty: THRIFTY_SIMD=%s is not supported on this host; "
                 "falling back to %s\n",
                 to_string(request), to_string(supported));
  }
  return supported;
}

std::uint32_t min_gather_u32(const std::uint32_t* values,
                             const std::uint32_t* indices,
                             std::size_t count, std::uint32_t init,
                             bool stop_at_zero, SimdLevel level) {
#if defined(THRIFTY_SIMD_X86)
  switch (level) {
    case SimdLevel::kAvx512:
      return min_gather_avx512(values, indices, count, init, stop_at_zero);
    case SimdLevel::kAvx2:
      return min_gather_avx2(values, indices, count, init, stop_at_zero);
    default:
      break;
  }
#else
  (void)level;
#endif
  return min_gather_scalar(values, indices, count, init, stop_at_zero);
}

std::uint64_t count_equal_u32(const std::uint32_t* a, const std::uint32_t* b,
                              std::size_t count, SimdLevel level) {
#if defined(THRIFTY_SIMD_X86)
  switch (level) {
    case SimdLevel::kAvx512:
      return count_equal_avx512(a, b, count);
    case SimdLevel::kAvx2:
      return count_equal_avx2(a, b, count);
    default:
      break;
  }
#else
  (void)level;
#endif
  return count_equal_scalar(a, b, count);
}

std::uint64_t popcount_u64(const std::uint64_t* words, std::size_t count,
                           SimdLevel level) {
#if defined(THRIFTY_SIMD_X86)
  switch (level) {
    case SimdLevel::kAvx512:
      if (has_vpopcntdq()) return popcount_avx512(words, count);
      return popcount_avx2(words, count);
    case SimdLevel::kAvx2:
      return popcount_avx2(words, count);
    default:
      break;
  }
#else
  (void)level;
#endif
  return popcount_scalar(words, count);
}

void fill_zero_u64(std::uint64_t* words, std::size_t count,
                   SimdLevel level) {
#if defined(THRIFTY_SIMD_X86)
  switch (level) {
    case SimdLevel::kAvx512:
      fill_zero_avx512(words, count);
      return;
    case SimdLevel::kAvx2:
      fill_zero_avx2(words, count);
      return;
    default:
      break;
  }
#else
  (void)level;
#endif
  fill_zero_scalar(words, count);
}

void copy_u32(std::uint32_t* dst, const std::uint32_t* src,
              std::size_t count, SimdLevel level) {
#if defined(THRIFTY_SIMD_X86)
  switch (level) {
    case SimdLevel::kAvx512:
      copy_avx512(dst, src, count);
      return;
    case SimdLevel::kAvx2:
      copy_avx2(dst, src, count);
      return;
    default:
      break;
  }
#else
  (void)level;
#endif
  copy_scalar(dst, src, count);
}

bool flatten_u32(std::uint32_t* parent, std::size_t begin,
                 std::size_t end) {
  bool any = false;
  while (shortcut_sweep(parent, begin, end)) any = true;
  return any;
}

}  // namespace simd
}  // namespace thrifty::support
