// The benchmark's workloads: closed-loop consumers reading whole epochs
// through the live data plane. See perfbench/README.md for why each one
// exists and which layer it loads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: timed epochs spread over every deployment, end-to-end
  /// metrics. true: on the last deployment, an untraced half then a
  /// traced half, per-layer metrics.
  bool trace = false;
  /// Scratch directory (relative paths keep the UNIX socket path short):
  /// dataset files, the socket, the span file.
  std::string work_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  /// False when setup failed; `error` says why and nothing else is valid.
  bool ran = false;
  std::string error;

  std::uint64_t attempted = 0;  // samples read (warm-up included)
  std::uint64_t failed = 0;     // errors, wrong length/identity/content
  /// Output checks beyond per-sample ones (zero-copy invariant).
  std::vector<std::string> violations;
  std::vector<Metric> metrics;  // end-to-end or per-layer, per `trace`

  std::string engine = "none";  // UdsServer::engine_name()
  std::size_t server_threads = 0;
  std::string span_file;        // traced runs only
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench
