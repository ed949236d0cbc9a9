// dataplane_bench: one closed-loop workload through the live PRISMA data
// plane, checked sample by sample, reported as one JSON line.
//
//   dataplane_bench --workload uds_small_mem --seed 7 --seconds 10
//       --trace 0 --work-dir .bench_build/work/uds_small_mem [--commit SHA]
//
// Output: a "# stamp {...}" line (host, build, engine), then, as the last
// line, {"correct", "attempted", "failed", "metrics"} where metrics are
// the end-to-end set (--trace 0) or the per-layer set (--trace 1).
// Exit status: 0 all samples correct; 1 a failed/wrong sample or a
// violated invariant; 2 bad arguments or set-up failure; 3 the build is
// unfit for timing.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/mutex.hpp"
#include "workloads.hpp"

namespace {

const char* BuildUnfitForTiming() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif PRISMA_LOCK_ORDER_CHECKS
  return "lock-order validator build (its per-acquisition backtraces "
         "dominate the numbers)";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0 ||
      std::strcmp(PERFBENCH_BUILD_TYPE, "") == 0) {
    return "unoptimized build";
  }
  return nullptr;
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dataplane_bench: %s\nusage: dataplane_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--commit SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
      if (!opt.trace && std::strcmp(val, "0") != 0) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!have_workload || opt.work_dir.empty()) {
    return Usage("--workload and --work-dir are required");
  }
  if (const char* why = BuildUnfitForTiming()) {
    std::fprintf(stderr, "dataplane_bench: refusing to report from a %s\n",
                 why);
    return 3;
  }

  const perfbench::RunResult r = perfbench::RunWorkload(opt);
  if (!r.ran) {
    std::fprintf(stderr, "dataplane_bench: %s\n", r.error.c_str());
    return 2;
  }

  std::printf("# stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"build_type\": %s, "
              "\"commit\": %s, "
              "\"engine\": %s, \"server_threads\": %zu%s}\n",
              JsonString(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed),
              JsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(commit).c_str(),
              JsonString(r.engine).c_str(), r.server_threads,
              r.span_file.empty()
                  ? ""
                  : (", \"span_file\": " + JsonString(r.span_file)).c_str());
  for (const auto& v : r.violations) {
    std::fprintf(stderr, "dataplane_bench: %s\n", v.c_str());
  }

  const bool correct = r.failed == 0 && r.violations.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
