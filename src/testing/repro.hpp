// Replayable repro files for crosscheck failures.
//
// A repro is self-contained: the exact edge list (post-minimization),
// the RunSetup that exposed the failure, the implicated algorithm and
// oracle, and any injected fault — everything `cc_crosscheck
// --replay=<file>` needs to reproduce the discrepancy without the
// original seed sweep.  Plain text, one `key value` pair per line, then
// one `u v` pair per edge:
//
//   # cc_crosscheck repro v1
//   spec random:17
//   oracle cross_algorithm
//   algorithm thrifty
//   detail partition differs from union-find reference
//   threads 2
//   density_threshold 0.05      (or "default")
//   algorithm_seed 1
//   fault none
//   vertices 100
//   edges 2
//   0 1
//   1 2
#pragma once

#include <iosfwd>
#include <string>

#include "graph/types.hpp"
#include "testing/oracles.hpp"

namespace thrifty::testing {

struct Repro {
  /// Scenario spec the failure was found on (provenance only; the edge
  /// list below is authoritative and usually much smaller).
  std::string scenario_spec;
  std::string oracle;
  std::string algorithm;
  std::string detail;
  RunSetup setup;
  FaultKind fault = FaultKind::kNone;
  graph::VertexId num_vertices = 0;
  graph::EdgeList edges;
};

void write_repro(std::ostream& out, const Repro& repro);
void write_repro_file(const std::string& path, const Repro& repro);

/// Parses a repro.  Throws std::runtime_error on malformed input
/// (bad value for a known key, missing section, endpoint out of range).
/// Unknown keys are forward-compatible: warned about on stderr and
/// skipped, so older binaries can replay files from newer writers.
[[nodiscard]] Repro read_repro(std::istream& in);
[[nodiscard]] Repro read_repro_file(const std::string& path);

}  // namespace thrifty::testing
