// Inert placement and steal-scope names, kept only because perfbench
// prints them.
//
// The paper ran on multi-socket machines with interleaved memory (§V).
// This library has one placement, first touch: every hot array is an
// uninitialised allocation whose pages fault in inside the caller's
// parallel init loop.  The partition scheduler has one steal order,
// nearest first.  Neither enum is read by any solver.
#pragma once

namespace thrifty::support {

/// Memory-placement policy for the hot arrays.  Printed by perfbench
/// only.
enum class Placement {
  kFirstTouch,  ///< pages touched by their traversing threads
};

/// Work-stealing scope for the partition scheduler.  Printed by
/// perfbench only.
enum class StealScope {
  kLocal,  ///< nearest-first victim order
};

[[nodiscard]] inline const char* to_string(Placement) {
  return "firsttouch";
}
[[nodiscard]] inline const char* to_string(StealScope) { return "local"; }

}  // namespace thrifty::support
