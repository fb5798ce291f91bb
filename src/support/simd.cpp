#include "support/simd.hpp"

#include <atomic>
#include <cstdio>

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

// Relaxed tagged load for labels other threads update mid-iteration.
// On x86 it compiles to the same plain mov the vector gathers perform,
// so the variants stay bit-identical; the tag is what keeps the scalar
// path — the only path under ThreadSanitizer — clean under
// instrumentation.
inline std::uint32_t relaxed_load(const std::uint32_t& slot) {
  return std::atomic_ref<const std::uint32_t>(slot).load(
      std::memory_order_relaxed);
}

// -------------------------------------------------------------------
// Scalar reference variant.  Both vector variants below must return
// exactly its bytes.

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

#if defined(THRIFTY_SIMD_X86)

// -------------------------------------------------------------------
// AVX2 variant (8 × u32 lanes).

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

// -------------------------------------------------------------------
// AVX-512 variant (16 × u32 lanes).  Only AVX-512F is assumed.
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

}  // namespace simd
}  // namespace thrifty::support
