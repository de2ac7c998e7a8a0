/// malsched_perfbench: runs one benchmark workload and prints its metrics.
///
///   malsched_perfbench --workload <exact-mix|zipf-open|shard-miss|online-replay>
///                      --seed <n> --seconds <s> --trace <0|1>
///                      [--smoke] [--out-dir <dir>]
///
/// The last line of stdout is one JSON object {correct, attempted, failed,
/// metrics}; lines before it start with '#' and carry run metadata, the
/// latency_tail_ms with its percentile and sample count, and typed failure
/// counts.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "malsched_perfbench: %s\n"
               "usage: malsched_perfbench --workload <exact-mix|zipf-open|"
               "shard-miss|online-replay> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  const bool known = args.workload == "exact-mix" || args.workload == "zipf-open" ||
                     args.workload == "shard-miss" || args.workload == "online-replay";
  if (!known) {
    return usage("unknown --workload");
  }

  std::printf("# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"smoke\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"sanitizer\": \"%s\"}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER,
              std::string(PERFBENCH_SANITIZE).empty() ? "none" : PERFBENCH_SANITIZE);
  std::fflush(stdout);

  perfbench::Report report;
  if (args.workload == "exact-mix") {
    perfbench::run_exact_mix(args, report);
  } else if (args.workload == "zipf-open") {
    perfbench::run_zipf_open(args, report);
  } else if (args.workload == "shard-miss") {
    perfbench::run_shard_miss(args, report);
  } else {
    perfbench::run_online_replay(args, report);
  }
  if (args.trace) {
    perfbench::finish_layer_rows(args.workload, report);
  }
  report.print(args.trace ? perfbench::per_layer_metrics()
                          : perfbench::end_to_end_metrics(args.workload));
  // A failed check is reported through "correct", not the exit code.
  return 0;
}
