// thrifty_perfbench: the measured half of the end-to-end benchmark.
//
//   thrifty_perfbench setup --workload W --seed N --dir D [--reference]
//       builds the workload's inputs into D and prints {"setup_s": ...};
//       --reference also writes the reference canonical labels (untimed).
//   thrifty_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       measures and prints one JSON line {"attempted", "failed",
//       "metrics", "info"}; --trace 1 reports the per-layer rows and writes
//       D/trace.json.
//
// perfbench/run.py drives both and prints the benchmark's result line.
#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage_error(std::string_view what, std::string_view value) {
  std::string message(what);
  message += value;
  throw std::invalid_argument(message);
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      usage_error("unexpected argument ", key);
    }
    if (key == "--reference") {
      flags[key] = std::string();  // a switch: present or absent
    } else if (i + 1 < argc) {
      flags[key] = std::string(argv[++i]);
    } else {
      usage_error("missing the value of ", key);
    }
  }
  return flags;
}

const std::string& required(const std::map<std::string, std::string>& flags,
                            const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage_error("missing ", key);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    if (argc < 2) throw std::invalid_argument("expected setup | run");
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv);
    Context ctx;
    ctx.workload = required(flags, "--workload");
    ctx.seed = std::stoull(required(flags, "--seed"));
    ctx.dir = required(flags, "--dir");
    ctx.nproc = affinity_cpus();
    // No more OpenMP threads than CPUs granted, whatever OMP_NUM_THREADS says.
    omp_set_num_threads(std::min(omp_get_max_threads(), ctx.nproc));

    if (command == "setup") {
      const double seconds =
          setup_workload(ctx, flags.count("--reference") != 0);
      flush_files(ctx.dir);
      std::printf("{\"setup_s\": %.17g}\n", seconds);
      return 0;
    }
    if (command != "run") usage_error("unknown command ", command);
    ctx.seconds = std::stod(required(flags, "--seconds"));
    ctx.trace = required(flags, "--trace") == "1";
    Outcome out;
    describe_environment(ctx, out);
    if (ctx.workload == kSkewedBatch || ctx.workload == kRoadBatch) {
      run_batch(ctx, out);
    } else if (ctx.workload == kServeMixed) {
      run_serve(ctx, out);
    } else if (ctx.workload == kShardedStream) {
      run_sharded(ctx, out);
    } else {
      usage_error("unknown workload ", ctx.workload);
    }
    std::cout << out.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "thrifty_perfbench: " << e.what() << "\n";
    return 1;
  }
}
