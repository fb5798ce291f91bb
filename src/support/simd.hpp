// The pull's gather kernel: min(init, labels[adjacency slice]).
//
// Thrifty's cost is the per-edge gather of its pull iterations (§IV,
// Table IV): read each neighbour's label, keep the minimum.  Written as
// a plain loop it is scalar, because the compiler cannot vectorize an
// indexed load.  min_gather_u32 has scalar, AVX2 and AVX-512 variants
// selected at runtime; it is the only vector code in the tree.  The
// dense sweeps around it (label copies, convergence counts, bitmap
// clears and counts) are plain loops the compiler handles itself.
//
//   * the instruction-set probe runs once per process (CPUID via
//     __builtin_cpu_supports, cached in max_supported());
//   * the requested ceiling comes from RunConfig::simd
//     (THRIFTY_SIMD=auto|scalar|avx2|avx512); effective_level() clamps
//     it to what the host actually supports, warning once on a forced
//     level the host lacks;
//   * pull loops resolve the level once per algorithm invocation and
//     pass it into the kernel, so dispatch cost never lands on the
//     per-edge path.
//
// Bit-identity contract: for any input, every variant returns exactly
// the value the scalar variant returns.  Minimum is order-independent,
// so lane width cannot leak into results, and the crosscheck harness
// and THRIFTY_SIMD=scalar runs can differential-test the variants.
//
// The vector variants are compiled with per-function target attributes
// (no global -mavx2), so one binary carries all paths and non-x86
// builds compile the scalar path only.  Under ThreadSanitizer
// max_supported() reports scalar: the vector gathers read labels that
// other threads update through relaxed std::atomic_ref, a benign
// monotone race the scalar path performs as tagged atomic loads but a
// gather necessarily performs as plain loads, which TSan would flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace thrifty::support {

/// Kernel instruction-set level.  kAuto is only meaningful as a request
/// (RunConfig::simd / THRIFTY_SIMD); dispatch resolves it to the best
/// level the host supports.  The concrete levels are ordered.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kAuto = 3 };

[[nodiscard]] const char* to_string(SimdLevel level);
/// Parses "auto" | "scalar" | "avx2" | "avx512"; nullopt otherwise.
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(
    std::string_view text);

namespace simd {

/// Best concrete level this host can execute.  Probed once per process;
/// kScalar on non-x86 builds and under ThreadSanitizer (see above).
[[nodiscard]] SimdLevel max_supported();

/// RunConfig::simd clamped to max_supported().  Never returns kAuto.
/// A forced level the host lacks falls back to the best supported one
/// with a one-time stderr warning.
[[nodiscard]] SimdLevel effective_level();

/// The x86 gather instructions sign-extend their 32-bit indices, so the
/// gather kernel can only address ids below 2^31.  Call sites that feed
/// vertex ids into gathers clamp through this helper; graphs that large
/// simply keep the scalar path.
inline constexpr std::uint64_t kMaxGatherIds = 1ull << 31;
[[nodiscard]] inline SimdLevel gather_level(SimdLevel level,
                                            std::uint64_t num_ids) {
  return num_ids > kMaxGatherIds ? SimdLevel::kScalar : level;
}

/// min(init, values[indices[0..count)]) — the pull-mode min-label scan
/// (values = label array, indices = a CSR adjacency slice).  When
/// stop_at_zero is set the scan returns as soon as the running minimum
/// hits zero (Thrifty's Zero Convergence early exit); zero is the
/// global minimum, so early exit never changes the result, only how
/// much of the slice is read.
[[nodiscard]] std::uint32_t min_gather_u32(const std::uint32_t* values,
                                           const std::uint32_t* indices,
                                           std::size_t count,
                                           std::uint32_t init,
                                           bool stop_at_zero,
                                           SimdLevel level);

}  // namespace simd
}  // namespace thrifty::support
