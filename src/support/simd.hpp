// Vectorized kernel layer for the dense label-propagation hot loops.
//
// Thrifty's measured hot path (§IV, Table IV) is dominated by dense
// per-edge sweeps — gather the neighbour's label, take the minimum,
// conditionally update — plus the convergence/copy/popcount sweeps
// around them.  Written as plain loops, they are scalar and leave the
// vector units idle.  This header exposes each
// sweep as a kernel with scalar / AVX2 / AVX-512 variants selected at
// runtime:
//
//   * the instruction-set probe runs once per process (CPUID via
//     __builtin_cpu_supports, cached in max_supported());
//   * the requested ceiling comes from RunConfig::simd
//     (THRIFTY_SIMD=auto|scalar|avx2|avx512); effective_level() clamps
//     it to what the host actually supports, warning once on a forced
//     level the host lacks;
//   * hot loops resolve the level once per algorithm invocation and
//     pass it into the kernels, so dispatch cost never lands on the
//     per-edge path.
//
// Bit-identity contract: for any input, every variant of a kernel
// returns exactly the bytes the scalar variant returns.  Each kernel
// computes an order-independent function (min, equality count,
// population count, fill, copy), so lane
// width cannot leak into results and the crosscheck/metamorphic
// harness can differential-test variants against the scalar oracle.
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
/// gather kernels can only address ids below 2^31.  Call sites that feed
/// vertex ids into gathers clamp through this helper; graphs that large
/// simply keep the scalar path.
inline constexpr std::uint64_t kMaxGatherIds = 1ull << 31;
[[nodiscard]] inline SimdLevel gather_level(SimdLevel level,
                                            std::uint64_t num_ids) {
  return num_ids > kMaxGatherIds ? SimdLevel::kScalar : level;
}

// ---------------------------------------------------------------------
// Kernels.  Every variant is bit-identical to the scalar variant.

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

/// Number of positions where a[i] == b[i] — the convergence sweep.
[[nodiscard]] std::uint64_t count_equal_u32(const std::uint32_t* a,
                                            const std::uint32_t* b,
                                            std::size_t count,
                                            SimdLevel level);

/// Sum of std::popcount over words — Bitmap::count.
[[nodiscard]] std::uint64_t popcount_u64(const std::uint64_t* words,
                                         std::size_t count,
                                         SimdLevel level);

/// Zeroes words — Bitmap::clear.
void fill_zero_u64(std::uint64_t* words, std::size_t count,
                   SimdLevel level);

/// dst[0..count) = src[0..count) — the DO-LP label-synchronisation
/// sweep.
void copy_u32(std::uint32_t* dst, const std::uint32_t* src,
              std::size_t count, SimdLevel level);

/// Pointer-jumps parent[begin..end) to its fixed point: sweeps
/// parent[v] = parent[parent[v]] where the grandparent is smaller, until
/// the range is stable, i.e. every entry in the range points at a root.
/// Indices may reach outside [begin, end) — reads cover the whole array
/// — which is what lets callers run one flatten per thread over a static
/// partition.  Returns true when any entry changed, which is exactly
/// "some entry was not already pointing at a root".  Scalar only: a
/// gather-based AVX2/AVX-512 sweep measured slower than this loop.
///
/// Requires parent[v] <= v-ish monotonicity only in the sense every
/// union-find forest provides: chains terminate at a self-loop root.
bool flatten_u32(std::uint32_t* parent, std::size_t begin,
                 std::size_t end);

}  // namespace simd
}  // namespace thrifty::support
