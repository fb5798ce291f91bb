// Shared machinery of the end-to-end benchmark: run context, sample
// statistics, the failure ledger, the span tracer and the small binary
// files the setup step hands to the measured run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall-clock stopwatch started at construction.
class Stopwatch {
 public:
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  Clock::time_point start_ = Clock::now();
};

/// Timing samples of one measured operation.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<double> values_;
};

/// Command-line context of one measured run.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory holding the setup step's files.
  std::string dir;
  /// CPUs this process may run on (sched_getaffinity).
  int nproc = 1;

  [[nodiscard]] std::string file(std::string_view name) const {
    return dir + "/" + std::string(name);
  }
};

/// Operations attempted and failed, plus the metrics and descriptive
/// fields a run reports.  A wrong answer or an exception is a failed
/// operation; neither aborts the run.
class Outcome {
 public:
  /// Runs `op`, which returns whether its result was correct.
  bool attempt(std::string_view what, const std::function<bool()>& op);
  /// Records `count` operations made elsewhere (reader threads), `failed`
  /// of which were wrong.
  void record(std::string_view what, std::uint64_t count,
              std::uint64_t failed);

  void metric(std::string name, double value, std::string unit);
  /// A timing metric (ms) as the median of `samples`, with the sample
  /// count, quartiles and maximum recorded beside it.
  void timing(const std::string& name, const Samples& samples);
  void info(std::string key, std::string value);
  void info(std::string key, double value);

  /// One-line JSON: {"attempted", "failed", "metrics", "info"}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // raw JSON values
};

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each layer, kept in
// memory and written once at exit.

struct SpanRecord {
  const char* name = "";  ///< static string: the layer function called
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same track; -1 for a root
  std::uint32_t run = 0;     ///< shared by every span of one operation
};

class Tracer;

/// The spans of one thread.  Only its owning thread writes to it.
class Track {
 public:
  Track(Tracer& owner, int id) : owner_(owner), id_(id) {}
  Track(const Track&) = delete;
  Track& operator=(const Track&) = delete;

 private:
  friend class Span;
  friend class Tracer;
  Tracer& owner_;
  int id_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
};

/// Owns every track.  A disabled tracer hands out null tracks, which make
/// Span a no-op, so the untraced paths run the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A new track for the calling thread (null when disabled).
  [[nodiscard]] Track* new_track();

  /// Durations (ms) of spans named `name` whose parent is named `parent`
  /// (any parent when empty; roots only when "-").
  [[nodiscard]] Samples durations(std::string_view name,
                                  std::string_view parent = {}) const;

  void counter(std::string key, double value);

  /// Writes {"spans": [...], "counters": {...}} plus `header` fields.
  void write_json(const std::string& path,
                  const std::string& header_json) const;

 private:
  friend class Span;
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint32_t> next_run_{1};
  mutable std::mutex mutex_;  // guards tracks_ (creation) and counters_
  std::deque<Track> tracks_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// RAII span; nested spans on one track record their parent and share the
/// root's run id.
class Span {
 public:
  Span(Track* track, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Renames the span once its outcome is known (name must be static).
  void rename(const char* name);

 private:
  Track* track_;
  std::int32_t index_ = -1;
};

// ---------------------------------------------------------------------------
// Files handed from the setup step to the measured run.

void write_labels(const std::string& path,
                  std::span<const thrifty::graph::Label> labels);
[[nodiscard]] std::vector<thrifty::graph::Label> read_labels(
    const std::string& path);
void write_edges(const std::string& path,
                 std::span<const thrifty::graph::Edge> edges);
[[nodiscard]] std::vector<thrifty::graph::Edge> read_edges(
    const std::string& path);
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);
/// fsyncs every file in `dir`, so that write-back of the set-up's output
/// does not compete with the measured run for the disk.
void flush_files(const std::string& dir);

/// True when `labels` induces the same partition as `reference`, a
/// canonical labelling (reference[v] = smallest id in v's component).
/// Equivalent to canonical_labels(labels) == reference, in O(n) without
/// hashing: labels must be constant on every reference component and
/// distinct across them.
[[nodiscard]] bool same_partition_as(
    std::span<const thrifty::graph::Label> labels,
    std::span<const thrifty::graph::Label> reference);

/// Peak resident set of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// OpenMP team size a parallel region actually gets.
[[nodiscard]] int granted_team();

// ---------------------------------------------------------------------------
// Workloads.  `setup_*` builds a workload's inputs into ctx.dir and
// returns the seconds it took; with `reference` it also writes the
// reference canonical labels (untimed).  `run_*` measures.

double setup_workload(const Context& ctx, bool reference);
void run_batch(const Context& ctx, Outcome& out);
void run_serve(const Context& ctx, Outcome& out);
void run_sharded(const Context& ctx, Outcome& out);

/// Environment fields every result carries.
void describe_environment(const Context& ctx, Outcome& out);

}  // namespace perfbench
