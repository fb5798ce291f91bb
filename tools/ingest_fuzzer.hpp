// Fuzz / differential harness for the graph-ingest pipeline, shared by
// the `fuzz_ingest` CLI tool and `tests/ingest_fuzz_test.cpp`.
//
// The harness encodes valid graphs from the generators in each of the
// three I/O formats, applies structured corruptions (header bit flips,
// truncation, trailing garbage, duplicated / out-of-range entries,
// non-monotone offsets), and checks the ingest contract: every mutated
// input is either rejected with a typed IoError or parses into data the
// CSR invariant checker accepts.  Anything else — a crash, an abort from
// a contract check, an untyped exception, a silently-corrupt graph — is a
// recorded failure.  Every binary buffer also runs through all three
// snapshot loaders (stream, parallel pread, mmap), which must agree on
// the arrays or on the IoError kind and byte offset.  It also checks that
// all three formats round-trip byte-identically on unmutated generator
// graphs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace thrifty::tools {

struct FuzzOptions {
  std::uint64_t iterations = 256;
  std::uint64_t seed = 1;
  /// Log every iteration's outcome to stderr.
  bool verbose = false;
};

struct FuzzStats {
  std::uint64_t iterations = 0;
  /// Mutant rejected with a typed IoError — the expected common case.
  std::uint64_t rejected = 0;
  /// Mutant (or control) parsed and passed the invariant checker.
  std::uint64_t accepted_valid = 0;
  /// Parsed into something too large to build/validate in-memory within
  /// the harness budget (e.g. an edge list naming vertex 4e9); parsing
  /// itself upheld the contract, so these are not failures.
  std::uint64_t accepted_unbuilt = 0;
  /// Contract violations: untyped exceptions, invariant-checker rejections
  /// of accepted input, control inputs failing to parse.
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the mutation fuzz loop.  Deterministic in options.seed.
[[nodiscard]] FuzzStats fuzz_ingest(const FuzzOptions& options);

/// Write → read → write byte-identity plus binary/CSR differential checks
/// over a fixed set of generator graphs.  Returns failure descriptions
/// (empty = pass).  Deterministic in `seed`.
[[nodiscard]] std::vector<std::string> check_round_trips(
    std::uint64_t seed);

}  // namespace thrifty::tools
