#include "plan/solve.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc_baselines/concurrent_hook.hpp"
#include "core/async_cc.hpp"
#include "frontier/bitmap.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/run_config.hpp"
#include "support/timer.hpp"

namespace thrifty::plan {

namespace {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;

// Independent seed streams derived from CcOptions::seed.
constexpr std::uint64_t kProfileSalt = 0x9a11ull;
constexpr std::uint64_t kGiantSalt = 0x61a7ull;

/// Resolves a step's requested kernel ceiling against host support.
/// kAuto defers to the configured effective level; an explicit level is
/// clamped to what the host can run (the concrete enum values are
/// ordered).  Bit-identity of the kernels means this never affects the
/// result bytes, only throughput.
support::SimdLevel resolve_simd(support::SimdLevel requested) {
  if (requested == support::SimdLevel::kAuto) {
    return support::simd::effective_level();
  }
  return std::min(requested, support::simd::max_supported());
}

/// Fraction of a seeded vertex sample covered by its most frequent
/// label — the ConnectIt giant-component estimate, as a fraction rather
/// than concurrent_hook.hpp's label-only variant.
double sampled_giant_fraction(const core::LabelArray& labels, VertexId n,
                              std::uint32_t samples, std::uint64_t seed) {
  if (n == 0 || samples == 0) return 0.0;
  support::Xoshiro256StarStar rng(seed);
  std::unordered_map<Label, std::uint32_t> counts;
  counts.reserve(samples * 2);
  std::uint32_t best = 0;
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto v = static_cast<VertexId>(rng.next_below(n));
    best = std::max(best, ++counts[core::load_label(labels[v])]);
  }
  return static_cast<double>(best) / static_cast<double>(samples);
}

/// Replays a recorded trace's *executed* steps verbatim; once the trace
/// is exhausted (replay against a different graph, or a hand-truncated
/// file) it degrades to plain pull sweeps, which converge from any
/// state.
class TracePlanner : public Planner {
 public:
  explicit TracePlanner(const PlanTrace& trace) {
    steps_.reserve(trace.steps.size());
    for (const TraceStep& s : trace.steps) steps_.push_back(s.step);
  }

  PlanStep next(const Observation&) override {
    if (cursor_ < steps_.size()) return steps_[cursor_++];
    return PlanStep{};  // kPull fallback
  }

 private:
  std::vector<PlanStep> steps_;
  std::size_t cursor_ = 0;
};

/// Per-solve state.  One instance per solve_with_plan call; all methods
/// run on the calling thread and open their own parallel regions.
class Executor {
 public:
  Executor(const CsrGraph& graph, const core::CcOptions& options,
           const PlanSpec& spec, double finish_cutover)
      : graph_(graph),
        n_(graph.num_vertices()),
        m_(graph.num_directed_edges()),
        options_(options),
        spec_(spec),
        finish_cutover_(finish_cutover) {}

  PlanResult run() {
    const support::Timer timer;
    PlanResult out;
    out.trace.planner = spec_.text;
    out.trace.seed = options_.seed;
    out.trace.num_vertices = n_;
    out.trace.num_directed_edges = m_;
    out.result.stats.algorithm = "adaptive";
    if (n_ == 0) {
      out.result.stats.total_ms = timer.elapsed_ms();
      return out;
    }

    labels_ = core::make_label_array(n_);
    scratch_ = core::make_label_array(n_);
    changed_.assign(n_, 0);
    support::parallel_for<VertexId>(n_, [&](VertexId v) { labels_[v] = v; });

    std::unique_ptr<Planner> planner = make_planner();

    Observation obs;
    obs.active_vertices = n_;
    obs.active_edges = m_;
    obs.density = frontier::frontier_density(n_, m_, m_);

    bool converged = false;
    // Label values only travel one hop per iteration, so any plan needs
    // at most diameter + O(1) iterations; exceeding n_ means the
    // convergence protocol is broken and we fail loudly over spinning.
    const std::uint64_t max_iterations = static_cast<std::uint64_t>(n_) + 8;
    for (std::uint64_t iter = 0; !converged; ++iter) {
      if (iter >= max_iterations) {
        throw std::logic_error(
            "plan executor exceeded the iteration bound without "
            "converging (broken convergence protocol?)");
      }
      obs.iteration = static_cast<int>(iter);
      obs.have_frontier = have_frontier_;
      obs.giant_fraction =
          (sample_giant_ && iter > 0)
              ? sampled_giant_fraction(
                    labels_, n_, options_.component_sample_size,
                    support::hash_mix(options_.seed,
                                      kGiantSalt + iter))
              : -1.0;

      const PlanStep requested = planner->next(obs);
      PlanStep step = requested;
      // Sanitize: a push without a materialised frontier is not
      // executable — run the frontier-building pull that makes the next
      // push legal instead.  This also (re)establishes the invariant
      // behind empty-frontier convergence: after a full sweep, every
      // label still able to propagate sits in the frontier.
      if (step.kind == StepKind::kPush && !have_frontier_) {
        step.kind = StepKind::kPullFrontier;
      }

      std::uint64_t changes = 0;
      std::uint64_t publishes = 0;
      switch (step.kind) {
        case StepKind::kPull:
          changes = jacobi_pull(step, /*materialise_frontier=*/false);
          converged = changes == 0;
          break;
        case StepKind::kPullFrontier:
          changes = jacobi_pull(step, /*materialise_frontier=*/true);
          converged = changes == 0;
          break;
        case StepKind::kPush:
          changes = push();
          // Empty next frontier == fixed point: every vertex able to
          // lower a neighbour was in the frontier with its final label.
          converged = changes == 0;
          break;
        case StepKind::kFinish:
          finish();
          converged = true;
          break;
        case StepKind::kAsync:
          changes = async_drain(publishes);
          converged = true;
          break;
      }

      TraceStep record;
      record.step = step;
      record.requested = requested.kind;
      record.active_vertices = active_vertices_;
      record.active_edges = active_edges_;
      record.label_changes = changes;
      record.publishes = publishes;
      record.density =
          frontier::frontier_density(active_vertices_, active_edges_, m_);
      record.giant_fraction = obs.giant_fraction;
      out.trace.steps.push_back(record);

      instrument::IterationRecord iteration;
      iteration.index = static_cast<int>(iter);
      iteration.direction = direction_of(step.kind);
      iteration.density = obs.density;
      iteration.active_vertices = obs.active_vertices;
      iteration.label_changes = changes;
      out.result.stats.iterations.push_back(iteration);

      obs.active_vertices = active_vertices_;
      obs.active_edges = active_edges_;
      obs.density = record.density;
    }
    out.result.stats.num_iterations =
        static_cast<int>(out.trace.steps.size());
    out.result.labels = std::move(labels_);
    out.result.stats.total_ms = timer.elapsed_ms();
    return out;
  }

 private:
  std::unique_ptr<Planner> make_planner() {
    switch (spec_.mode) {
      case PlanSpec::Mode::kAuto: {
        PlanOptions popts;
        popts.density_threshold = options_.density_threshold;
        popts.finish_cutover = finish_cutover_;
        popts.sample_size = options_.component_sample_size;
        popts.seed = options_.seed;
        popts.simd = support::run_config().simd;
        const GraphProfile profile = GraphProfile::sample(
            graph_, support::hash_mix(options_.seed, kProfileSalt),
            popts.sample_size);
        sample_giant_ =
            popts.finish_cutover > 0.0 && popts.finish_cutover <= 1.0;
        return std::make_unique<AdaptivePlanner>(profile, popts);
      }
      case PlanSpec::Mode::kFixed:
        return std::make_unique<FixedPlanner>(spec_.fixed_steps);
      case PlanSpec::Mode::kReplay:
        return std::make_unique<TracePlanner>(
            read_trace_file(spec_.replay_path));
    }
    throw std::logic_error("unreachable plan mode");
  }

  static instrument::Direction direction_of(StepKind kind) {
    switch (kind) {
      case StepKind::kPull:
        return instrument::Direction::kPull;
      case StepKind::kPullFrontier:
        return instrument::Direction::kPullFrontier;
      case StepKind::kPush:
        return instrument::Direction::kPush;
      case StepKind::kFinish:
        return instrument::Direction::kHook;
      case StepKind::kAsync:
        return instrument::Direction::kAsync;
    }
    return instrument::Direction::kPull;
  }

  /// Two-array sweep: scratch[v] = min(labels[v], min labels[N(v)]),
  /// then swap.  Every entry of scratch is (re)written, so staleness
  /// left by in-place push steps cannot leak.  Per-vertex change flags
  /// land in changed_ (owner-written, race-free).
  std::uint64_t jacobi_pull(const PlanStep& step, bool materialise_frontier) {
    const support::SimdLevel level =
        support::simd::gather_level(resolve_simd(step.simd), n_);
    const Label* values = labels_.data();
    support::parallel_for_dynamic<VertexId>(n_, [&](VertexId v) {
      const auto nbrs = graph_.neighbors(v);
      const Label before = values[v];
      const Label after = support::simd::min_gather_u32(
          values, nbrs.data(), nbrs.size(), before,
          /*stop_at_zero=*/true, level);
      scratch_[v] = after;
      changed_[v] = after != before ? 1 : 0;
    });
    std::swap(labels_, scratch_);
    const std::uint64_t changes = count_and_measure_changed();
    if (materialise_frontier) {
      pack_changed();
      have_frontier_ = true;
    } else {
      have_frontier_ = false;
    }
    return changes;
  }

  /// Frontier push with captured labels.  The value set {(v, l_v)} is
  /// fixed before the iteration starts, so the atomic-min outcome per
  /// target vertex is min(old, min captured of pushing neighbours) —
  /// commutative, hence schedule-independent — and the changed-vertex
  /// set (deduped through the bitmap's true RMW) is exact.
  std::uint64_t push() {
    frontier::Bitmap changed_bits(n_);
    support::parallel_for_dynamic<std::size_t>(
        frontier_vertices_.size(),
        [&](std::size_t i) {
          const Label captured = frontier_labels_[i];
          for (const VertexId u : graph_.neighbors(frontier_vertices_[i])) {
            if (core::atomic_min(labels_[u], captured)) {
              changed_bits.set_atomic(u);
            }
          }
        },
        std::size_t{64});

    // Two-phase capture: the changed set is known now, but a vertex
    // lowered twice this iteration must enter the next frontier with
    // its *final* label, so labels are re-read after the barrier.
    support::parallel_for<VertexId>(n_, [&](VertexId v) {
      changed_[v] = changed_bits.get(v) ? 1 : 0;
    });
    const std::uint64_t changes = count_and_measure_changed();
    pack_changed();
    have_frontier_ = true;
    return changes;
  }

  /// Barrier-free async drain to the global min fixed point (terminal,
  /// like finish).  The interior is schedule-dependent — the observed
  /// publish count lands in `publishes` for the trace — but the fixed
  /// point is not, so the deterministic label_changes this returns is
  /// the before/after diff against a snapshot, not anything counted
  /// inside the drain.  scratch_ doubles as the snapshot: every other
  /// step kind that touches it rewrites it in full.
  std::uint64_t async_drain(std::uint64_t& publishes) {
    core::copy_labels({labels_.data(), labels_.size()},
                      {scratch_.data(), scratch_.size()});
    const core::AsyncStats stats =
        core::async_propagate(graph_, labels_.data(), options_);
    publishes = stats.publishes;
    support::parallel_for<VertexId>(n_, [&](VertexId v) {
      changed_[v] = labels_[v] != scratch_[v] ? 1 : 0;
    });
    const std::uint64_t changes = count_and_measure_changed();
    active_vertices_ = 0;
    active_edges_ = 0;
    have_frontier_ = false;
    return changes;
  }

  /// Union-find finish.  The current labels are already a forest
  /// (identity init + min propagation gives labels[v] <= v with every
  /// chain strictly decreasing into a component-local fixed point), so
  /// they seed comp directly; linking every edge and compressing lands
  /// each vertex on its component minimum — the same bytes every other
  /// converged plan produces.
  void finish() {
    support::parallel_for_dynamic<VertexId>(n_, [&](VertexId v) {
      for (const VertexId u : graph_.neighbors(v)) {
        if (u < v) baselines::hook::link(v, u, labels_);
      }
    });
    baselines::hook::compress(labels_, n_);
    active_vertices_ = 0;
    active_edges_ = 0;
    have_frontier_ = false;
  }

  std::uint64_t count_and_measure_changed() {
    active_vertices_ = support::parallel_sum<VertexId>(
        n_, [&](VertexId v) { return changed_[v]; });
    active_edges_ = support::parallel_sum<VertexId>(n_, [&](VertexId v) {
      return changed_[v] ? graph_.degree(v) : 0;
    });
    return active_vertices_;
  }

  /// Packs {v : changed_[v]} into frontier_vertices_/frontier_labels_
  /// in ascending vertex order, capturing current labels.  Fixed-count
  /// slice passes (count, scan, fill) driven by parallel_for over slice
  /// *indices*, so the packed vector is identical at any thread count
  /// and no slice is lost if the runtime grants fewer threads.
  void pack_changed() {
    const int slices = support::num_threads();
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(slices) + 1,
                                       0);
    support::parallel_for<int>(slices, [&](int s) {
      const auto [begin, end] = support::thread_slice(n_, s, slices);
      std::uint64_t count = 0;
      for (std::size_t v = begin; v < end; ++v) count += changed_[v];
      offsets[static_cast<std::size_t>(s) + 1] = count;
    });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    frontier_vertices_.resize(offsets.back());
    frontier_labels_.resize(offsets.back());
    support::parallel_for<int>(slices, [&](int s) {
      const auto [begin, end] = support::thread_slice(n_, s, slices);
      std::uint64_t pos = offsets[static_cast<std::size_t>(s)];
      for (std::size_t v = begin; v < end; ++v) {
        if (changed_[v]) {
          frontier_vertices_[pos] = static_cast<VertexId>(v);
          frontier_labels_[pos] = labels_[v];
          ++pos;
        }
      }
    });
  }

  const CsrGraph& graph_;
  const VertexId n_;
  const EdgeOffset m_;
  const core::CcOptions& options_;
  const PlanSpec& spec_;
  const double finish_cutover_;

  core::LabelArray labels_;
  core::LabelArray scratch_;
  /// Per-vertex changed flag for the last executed step (owner-written
  /// in pulls, bitmap-derived in pushes).
  std::vector<std::uint8_t> changed_;
  support::UninitVector<VertexId> frontier_vertices_;
  support::UninitVector<Label> frontier_labels_;
  bool have_frontier_ = false;
  bool sample_giant_ = false;
  std::uint64_t active_vertices_ = 0;
  std::uint64_t active_edges_ = 0;
};

}  // namespace

PlanResult solve_with_plan(const CsrGraph& graph,
                           const core::CcOptions& options,
                           const PlanSpec& spec) {
  const double cutover = spec.mode == PlanSpec::Mode::kAuto
                             ? support::run_config().plan_cutover
                             : 0.0;
  Executor executor(graph, options, spec, cutover);
  return executor.run();
}

core::CcResult solve_adaptive(const CsrGraph& graph,
                              const core::CcOptions& options) {
  const PlanSpec spec = parse_plan_spec(support::run_config().plan);
  return solve_with_plan(graph, options, spec).result;
}

}  // namespace thrifty::plan
