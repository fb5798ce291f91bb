#include <omp.h>

#include <algorithm>
#include <string>

#include "core/cc_common.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = thrifty::core;
using thrifty::instrument::Direction;

namespace {

/// Solves every resident once inside a root span named `phase` (one span
/// per core::thrifty_cc call beneath it), then checks the answers outside
/// the span.
void traced_solve(std::span<const Resident> residents, const char* phase,
                  Track* track, Outcome& out) {
  out.attempt(phase, [&] {
    std::vector<core::CcResult> results;
    {
      const Span root(track, phase);
      for (const Resident& r : residents) {
        const Span call(track, "core::thrifty_cc");
        results.push_back(core::thrifty_cc(*r.graph));
      }
    }
    bool ok = true;
    for (std::size_t i = 0; i < residents.size(); ++i) {
      ok = ok &&
           same_partition_as(results[i].label_span(), residents[i].reference);
    }
    return ok;
  });
}

}  // namespace

void solve_once(std::span<const Resident> residents, Samples& into,
                Outcome& out) {
  out.attempt("core::thrifty_cc", [&] {
    double ms = 0.0;
    bool ok = true;
    for (const Resident& r : residents) {
      const Stopwatch clock;
      const core::CcResult result = core::thrifty_cc(*r.graph);
      ms += clock.ms();
      ok = ok && same_partition_as(result.label_span(), r.reference);
    }
    if (ok) into.add(ms);
    return ok;
  });
}

Samples time_solves(std::span<const Resident> residents, int count,
                    Outcome& out) {
  Samples solves;
  for (int i = 0; i < count; ++i) solve_once(residents, solves, out);
  return solves;
}

void measure_blocks(const Context& ctx, double pipeline_share,
                    const std::function<void()>& pipeline,
                    const std::function<void()>& solve) {
  const double block_ms = ctx.seconds * 1e3 / kBlocks;
  const std::size_t solves_per_block = (kMinSolves + kBlocks - 1) / kBlocks;
  for (int b = 0; b < kBlocks; ++b) {
    const Stopwatch clock;
    do {
      pipeline();
    } while (clock.ms() < pipeline_share * block_ms);
    for (std::size_t i = 0; i < solves_per_block || clock.ms() < block_ms;
         ++i) {
      solve();
    }
  }
}

void report_solves(const Samples& solves, Outcome& out) {
  out.timing("solve_ms", solves);
  out.info("solve_ms_p90", solves.quantile(0.9));
}

void core_layer(std::span<const Resident> residents, double solve_ms,
                Track* track, Tracer& tracer, Outcome& out) {
  // Counts only: an instrumented solve runs an order of magnitude slower
  // than a timed one, so its milliseconds are never reported.
  std::uint64_t iterations = 0, push = 0, pull = 0, edges = 0, directed = 0,
                reads = 0, writes = 0;
  out.attempt("core::thrifty_cc (instrumented)", [&] {
    core::CcOptions options;
    options.instrument = true;
    bool ok = true;
    const Span root(track, "instrumented");
    for (const Resident& r : residents) {
      core::CcResult result;
      {
        const Span call(track, "core::thrifty_cc");
        result = core::thrifty_cc(*r.graph, options);
      }
      const auto& stats = result.stats;
      iterations += static_cast<std::uint64_t>(stats.num_iterations);
      for (const auto& it : stats.iterations) {
        if (it.direction == Direction::kPush ||
            it.direction == Direction::kInitialPush) {
          ++push;
        } else if (it.direction == Direction::kPull ||
                   it.direction == Direction::kPullFrontier) {
          ++pull;
        }
      }
      edges += stats.events.edges_processed;
      reads += stats.events.label_reads;
      writes += stats.events.label_writes;
      directed += r.graph->num_directed_edges();
      ok = ok && same_partition_as(result.label_span(), r.reference);
    }
    return ok;
  });
  tracer.counter("run_stats.num_iterations", static_cast<double>(iterations));
  tracer.counter("run_stats.events.edges_processed",
                 static_cast<double>(edges));
  tracer.counter("run_stats.events.label_reads", static_cast<double>(reads));
  tracer.counter("run_stats.events.label_writes",
                 static_cast<double>(writes));
  out.metric("core.iterations", static_cast<double>(iterations), "count");
  out.metric("core.push_iterations", static_cast<double>(push), "count");
  out.metric("core.pull_iterations", static_cast<double>(pull), "count");
  out.metric("core.edges_processed", static_cast<double>(edges), "count");
  out.metric("core.edges_processed_frac",
             directed == 0 ? 0.0
                           : static_cast<double>(edges) /
                                 static_cast<double>(directed),
             "ratio");
  // Computed, not measured: 4-byte neighbour ids and label loads/stores
  // counted by the instrumented solve.
  out.metric("core.bytes_computed_mb",
             4.0 * static_cast<double>(edges + reads + writes) / (1 << 20),
             "MiB");

  // Single-thread baseline of the same solve.
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
  for (int rep = 0; rep < kLayerReps; ++rep) {
    traced_solve(residents, "solve_t1", track, out);
  }
  omp_set_num_threads(team);
  const double t1 = tracer.durations("solve_t1", "-").median();
  out.metric("core.solve_t1_ms", t1, "ms");
  out.metric("core.speedup", solve_ms > 0.0 ? t1 / solve_ms : 0.0, "x");

  // canonical_labels and verify_labels on a fresh answer.
  std::vector<core::CcResult> results;
  for (const Resident& r : residents) {
    results.push_back(core::thrifty_cc(*r.graph));
  }
  for (int rep = 0; rep < kLayerReps; ++rep) {
    out.attempt("core::canonical_labels", [&] {
      std::vector<std::vector<thrifty::graph::Label>> canonical;
      {
        const Span root(track, "canonical");
        for (const core::CcResult& result : results) {
          const Span call(track, "core::canonical_labels");
          canonical.push_back(core::canonical_labels(result.label_span()));
        }
      }
      bool ok = true;
      for (std::size_t i = 0; i < residents.size(); ++i) {
        ok = ok && std::equal(canonical[i].begin(), canonical[i].end(),
                              residents[i].reference.begin(),
                              residents[i].reference.end());
      }
      return ok;
    });
    out.attempt("core::verify_labels", [&] {
      bool ok = true;
      const Span root(track, "verify");
      for (std::size_t i = 0; i < residents.size(); ++i) {
        const Span call(track, "core::verify_labels");
        ok = ok && core::verify_labels(*residents[i].graph,
                                       results[i].label_span())
                       .valid;
      }
      return ok;
    });
  }
  out.metric("core.canonical_ms",
             tracer.durations("canonical", "-").median(), "ms");
  out.metric("core.verify_ms", tracer.durations("verify", "-").median(),
             "ms");
}

}  // namespace perfbench
