#include "bench.hpp"

#include <fcntl.h>
#include <omp.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "support/run_config.hpp"
#include "support/simd.hpp"
#include "support/topology.hpp"

#ifndef THRIFTY_PERFBENCH_BUILD_TYPE
#define THRIFTY_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr std::uint64_t kLoggedFailures = 10;

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <typename T>
void write_raw(const std::string& path, std::span<const T> items) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(items.data()),
            static_cast<std::streamsize>(items.size_bytes()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

template <typename T>
std::vector<T> read_raw(const std::string& path) {
  const std::uint64_t bytes = file_bytes(path);
  if (bytes % sizeof(T) != 0) {
    throw std::runtime_error(path + ": size is not a whole number of items");
  }
  std::vector<T> items(bytes / sizeof(T));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(items.data()),
          static_cast<std::streamsize>(bytes));
  if (!in) throw std::runtime_error("cannot read " + path);
  return items;
}

}  // namespace

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

bool Outcome::attempt(std::string_view what,
                      const std::function<bool()>& op) {
  ++attempted_;
  std::string why = "wrong result";
  try {
    if (op()) return true;
  } catch (const std::exception& e) {
    why = e.what();
  }
  // The count is the record; the first few messages say what went wrong.
  if (failed_++ < kLoggedFailures) {
    std::cerr << "perfbench: " << what << " failed: " << why << "\n";
  }
  return false;
}

void Outcome::record(std::string_view what, std::uint64_t count,
                     std::uint64_t failed) {
  attempted_ += count;
  failed_ += failed;
  if (failed != 0) {
    std::cerr << "perfbench: " << failed << " wrong results: " << what
              << "\n";
  }
}

void Outcome::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::timing(const std::string& name, const Samples& samples) {
  metric(name, samples.median(), "ms");
  info(name + "_samples", static_cast<double>(samples.size()));
  info(name + "_q1", samples.quantile(0.25));
  info(name + "_q3", samples.quantile(0.75));
  info(name + "_max", samples.quantile(1.0));
}

void Outcome::info(std::string key, std::string value) {
  info_.emplace_back(std::move(key), json_string(value));
}

void Outcome::info(std::string key, double value) {
  info_.emplace_back(std::move(key), json_number(value));
}

std::string Outcome::to_json() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(info_[i].first) << ": "
        << info_[i].second;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------

Track* Tracer::new_track() {
  if (!enabled_) return nullptr;
  const std::lock_guard lock(mutex_);
  tracks_.emplace_back(*this, static_cast<int>(tracks_.size()));
  return &tracks_.back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Samples Tracer::durations(std::string_view name,
                          std::string_view parent) const {
  Samples out;
  const std::lock_guard lock(mutex_);
  for (const Track& track : tracks_) {
    for (const SpanRecord& span : track.spans_) {
      if (name != span.name) continue;
      if (!parent.empty()) {
        const bool root = span.parent < 0;
        if (parent == "-" ? !root
                          : root || parent != track.spans_[static_cast<
                                                   std::size_t>(span.parent)]
                                                   .name) {
          continue;
        }
      }
      out.add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::counter(std::string key, double value) {
  const std::lock_guard lock(mutex_);
  counters_.emplace_back(std::move(key), value);
}

void Tracer::write_json(const std::string& path,
                        const std::string& header_json) const {
  std::ofstream out(path, std::ios::trunc);
  const std::lock_guard lock(mutex_);
  out << "{\"header\": " << header_json << ",\n\"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(counters_[i].first) << ": "
        << json_number(counters_[i].second);
  }
  out << "},\n\"spans\": [";
  bool first = true;
  for (const Track& track : tracks_) {
    for (std::size_t i = 0; i < track.spans_.size(); ++i) {
      const SpanRecord& s = track.spans_[i];
      out << (first ? "\n" : ",\n") << "{\"id\": \"" << track.id_ << "." << i
          << "\", \"name\": " << json_string(s.name)
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": ";
      if (s.parent < 0) {
        out << "null";
      } else {
        out << "\"" << track.id_ << "." << s.parent << "\"";
      }
      out << ", \"run\": " << s.run << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

Span::Span(Track* track, const char* name) : track_(track) {
  if (track_ == nullptr) return;
  SpanRecord record;
  record.name = name;
  if (track_->open_.empty()) {
    record.run =
        track_->owner_.next_run_.fetch_add(1, std::memory_order_relaxed);
  } else {
    record.parent = track_->open_.back();
    record.run =
        track_->spans_[static_cast<std::size_t>(record.parent)].run;
  }
  index_ = static_cast<std::int32_t>(track_->spans_.size());
  track_->open_.push_back(index_);
  record.start_ns = track_->owner_.now_ns();
  track_->spans_.push_back(record);
}

void Span::rename(const char* name) {
  if (track_ != nullptr) {
    track_->spans_[static_cast<std::size_t>(index_)].name = name;
  }
}

Span::~Span() {
  if (track_ == nullptr) return;
  track_->spans_[static_cast<std::size_t>(index_)].end_ns =
      track_->owner_.now_ns();
  track_->open_.pop_back();
}

// ---------------------------------------------------------------------------

void write_labels(const std::string& path,
                  std::span<const thrifty::graph::Label> labels) {
  write_raw(path, labels);
}

std::vector<thrifty::graph::Label> read_labels(const std::string& path) {
  return read_raw<thrifty::graph::Label>(path);
}

void write_edges(const std::string& path,
                 std::span<const thrifty::graph::Edge> edges) {
  write_raw(path, edges);
}

std::vector<thrifty::graph::Edge> read_edges(const std::string& path) {
  return read_raw<thrifty::graph::Edge>(path);
}

std::uint64_t file_bytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

void flush_files(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = open(entry.path().c_str(), O_RDONLY);
    if (fd < 0 || fsync(fd) != 0) {
      if (fd >= 0) close(fd);
      throw std::runtime_error("cannot flush " + entry.path().string());
    }
    close(fd);
  }
}

bool same_partition_as(std::span<const thrifty::graph::Label> labels,
                       std::span<const thrifty::graph::Label> reference) {
  using thrifty::graph::Label;
  if (labels.size() != reference.size()) return false;
  const std::size_t n = labels.size();
  Label max_label = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (reference[v] >= n) return false;
    if (labels[v] != labels[reference[v]]) return false;
    max_label = std::max(max_label, labels[v]);
  }
  std::vector<bool> used(static_cast<std::size_t>(max_label) + 1, false);
  for (std::size_t v = 0; v < n; ++v) {
    if (reference[v] != v) continue;  // one representative per component
    if (used[labels[v]]) return false;
    used[labels[v]] = true;
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int granted_team() {
  int team = 0;
#pragma omp parallel
  {
#pragma omp single
    team = omp_get_num_threads();
  }
  return team;
}

void describe_environment(const Context& ctx, Outcome& out) {
  namespace support = thrifty::support;
  const support::RunConfig& config = support::run_config();
  out.info("workload", ctx.workload);
  out.info("seed", static_cast<double>(ctx.seed));
  out.info("seconds", ctx.seconds);
  out.info("trace", ctx.trace ? 1.0 : 0.0);
  out.info("nproc", ctx.nproc);
  out.info("omp_team", granted_team());
  out.info("simd_level", support::to_string(support::simd::effective_level()));
  out.info("placement", support::to_string(config.placement));
  out.info("numa_steal", support::to_string(config.numa_steal));
  out.info("hub_split_degree", static_cast<double>(config.hub_split_degree));
#ifdef __VERSION__
  out.info("compiler", __VERSION__);
#endif
  out.info("build_type", THRIFTY_PERFBENCH_BUILD_TYPE);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  out.info("llc_bytes", llc > 0 ? static_cast<double>(llc) : 0.0);
  out.info("bandwidth_ratio",
           "not measured: arrays of at least 4x the LLC would exceed 1 GB, "
           "too large to regenerate for every run");
  out.info("hw_counters",
           "not used: software counters only (instrumented RunStats); the "
           "reference host exposes no hardware PMU");
}

}  // namespace perfbench
