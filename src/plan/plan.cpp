#include "plan/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/random.hpp"

namespace thrifty::plan {

const char* to_string(StepKind kind) {
  switch (kind) {
    case StepKind::kPull:
      return "pull";
    case StepKind::kPullFrontier:
      return "pullf";
    case StepKind::kPush:
      return "push";
    case StepKind::kFinish:
      return "finish";
    case StepKind::kAsync:
      return "async";
  }
  return "unknown";
}

std::optional<StepKind> parse_step_kind(std::string_view text) {
  if (text == "pull") return StepKind::kPull;
  if (text == "pullf") return StepKind::kPullFrontier;
  if (text == "push") return StepKind::kPush;
  if (text == "finish") return StepKind::kFinish;
  if (text == "async") return StepKind::kAsync;
  return std::nullopt;
}

GraphProfile GraphProfile::sample(const graph::CsrGraph& graph,
                                  std::uint64_t seed,
                                  std::uint32_t samples) {
  GraphProfile profile;
  profile.num_vertices = graph.num_vertices();
  profile.num_directed_edges = graph.num_directed_edges();
  if (profile.num_vertices == 0) return profile;
  profile.average_degree =
      static_cast<double>(profile.num_directed_edges) /
      static_cast<double>(profile.num_vertices);
  // With few enough vertices, scan exactly instead of sampling.
  if (profile.num_vertices <= samples) {
    for (graph::VertexId v = 0; v < profile.num_vertices; ++v) {
      profile.max_sampled_degree =
          std::max(profile.max_sampled_degree, graph.degree(v));
    }
  } else {
    support::Xoshiro256StarStar rng(seed);
    for (std::uint32_t i = 0; i < samples; ++i) {
      const auto v = static_cast<graph::VertexId>(
          rng.next_below(profile.num_vertices));
      profile.max_sampled_degree =
          std::max(profile.max_sampled_degree, graph.degree(v));
    }
    // A vertex sample almost surely misses a *single* dominant hub —
    // the defining shape this profile exists to detect — so anchor the
    // estimate with the exact maximum-degree sweep the paper already
    // prescribes (Algorithm 2, Lines 5-8; an O(n) parallel scan).
    if (profile.num_directed_edges > 0) {
      profile.max_sampled_degree =
          std::max(profile.max_sampled_degree,
                   graph.degree(graph.max_degree_vertex()));
    }
  }
  profile.skew = static_cast<double>(profile.max_sampled_degree) /
                 std::max(profile.average_degree, 1.0);
  return profile;
}

AdaptivePlanner::AdaptivePlanner(const GraphProfile& profile,
                                 const PlanOptions& options)
    : profile_(profile), options_(options) {}

PlanStep AdaptivePlanner::next(const Observation& observation) {
  PlanStep step;
  step.simd = options_.simd;

  // Sampling-then-finish: once the sampled giant component covers the
  // cutover fraction, one union-find pass over the remaining edges beats
  // any number of further sweeps.  giant_fraction is negative until the
  // executor has a sweep's worth of labels to sample, so the cutover
  // can never fire before iteration 1.
  const bool cutover_enabled =
      options_.finish_cutover > 0.0 && options_.finish_cutover <= 1.0;
  if (cutover_enabled &&
      observation.giant_fraction >= options_.finish_cutover) {
    step.kind = StepKind::kFinish;
    return step;
  }

  // Direction optimisation on the Thrifty density rule: sparse frontiers
  // push, dense ones pull.  The first iteration has no trajectory yet —
  // a full pull that also materialises the frontier bootstraps both the
  // labels and the density signal.
  if (observation.iteration == 0) {
    step.kind = StepKind::kPullFrontier;
    return step;
  }
  if (frontier::is_sparse(observation.density, options_.density_threshold)) {
    step.kind = observation.have_frontier ? StepKind::kPush
                                          : StepKind::kPullFrontier;
  } else {
    const bool mid_density =
        observation.density < 4.0 * options_.density_threshold;
    // Mid-density + moderate skew: the frontier still carries real mass
    // but no single hub dominates, so per-partition work is balanced
    // and the remaining propagation drains faster barrier-free than
    // through further synchronous sweeps (each of which pays a global
    // barrier per label hop).  Hub-dominated profiles keep the
    // synchronous path: one hub would pin the partition that owns it
    // while the others idle.  A skew below 1 only occurs in
    // degenerate or synthetic profiles, where the signal says nothing.
    if (mid_density && profile_.skew >= 1.0 &&
        profile_.skew < options_.async_max_skew) {
      step.kind = StepKind::kAsync;
    } else {
      // Dense phase: plain pulls are cheapest, but keep the frontier
      // materialised while the trajectory is near the switch point so a
      // push is executable the moment the frontier thins out.
      step.kind = mid_density ? StepKind::kPullFrontier : StepKind::kPull;
    }
  }
  return step;
}

FixedPlanner::FixedPlanner(std::vector<PlanStep> steps)
    : steps_(std::move(steps)) {
  if (steps_.empty()) {
    throw std::runtime_error("fixed plan must have at least one step");
  }
}

PlanStep FixedPlanner::next(const Observation&) {
  const PlanStep step = steps_[cursor_];
  if (cursor_ + 1 < steps_.size()) ++cursor_;
  return step;
}

PlanSpec parse_plan_spec(const std::string& text) {
  PlanSpec spec;
  spec.text = text.empty() ? "auto" : text;
  if (text.empty() || text == "auto") {
    spec.mode = PlanSpec::Mode::kAuto;
    return spec;
  }
  if (text.rfind("replay:", 0) == 0) {
    spec.mode = PlanSpec::Mode::kReplay;
    spec.replay_path = text.substr(7);
    if (spec.replay_path.empty()) {
      throw std::runtime_error("plan spec 'replay:' needs a trace file path");
    }
    return spec;
  }
  if (text.rfind("fixed:", 0) != 0) {
    throw std::runtime_error(
        "bad plan spec '" + text +
        "' (expected auto, fixed:<spec>, or replay:<file>)");
  }
  spec.mode = PlanSpec::Mode::kFixed;
  const std::string body = text.substr(6);
  if (body.empty()) {
    throw std::runtime_error("plan spec 'fixed:' needs at least one step");
  }
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string::npos) comma = body.size();
    std::string item = body.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) {
      throw std::runtime_error("plan spec '" + text + "' has an empty step");
    }
    std::uint64_t repeat = 1;
    const std::size_t star = item.find('*');
    if (star != std::string::npos) {
      const std::string count = item.substr(star + 1);
      item = item.substr(0, star);
      std::size_t consumed = 0;
      long long parsed = 0;
      try {
        parsed = std::stoll(count, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != count.size() || parsed <= 0) {
        throw std::runtime_error("plan spec '" + text +
                                 "' has a bad repeat count '" + count + "'");
      }
      repeat = static_cast<std::uint64_t>(parsed);
      // A plan is consumed one step per iteration; anything beyond the
      // vertex count can never execute, so cap expansion to stay O(n).
      repeat = std::min<std::uint64_t>(repeat, 1u << 20);
    }
    const auto kind = parse_step_kind(item);
    if (!kind) {
      throw std::runtime_error("plan spec '" + text +
                               "' has unknown step kind '" + item + "'");
    }
    for (std::uint64_t i = 0; i < repeat; ++i) {
      PlanStep step;
      step.kind = *kind;
      spec.fixed_steps.push_back(step);
    }
  }
  return spec;
}

}  // namespace thrifty::plan
