#include "workloads.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "alloc_count.hpp"
#include "backends.hpp"
#include "common/buffer_pool.hpp"
#include "common/clock.hpp"
#include "controlplane/controller.hpp"
#include "controlplane/policy.hpp"
#include "dataplane/pipeline_builder.hpp"
#include "dataplane/stage.hpp"
#include "frameworks/tf_adapter.hpp"
#include "frameworks/torch_adapter.hpp"
#include "ipc/uds_server.hpp"
#include "storage/dataset.hpp"
#include "storage/posix_backend.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace dp = prisma::dataplane;
namespace fsys = std::filesystem;
using prisma::Result;
using prisma::Status;

enum class Shape { kUdsSmallMem, kUdsImagenetFiles, kTfTieredNvme };

struct Spec {
  Shape shape;
  std::size_t base_files;  // the seed adds up to 1% more
  bool imagenet_sizes;     // log-normal, mean 113 KiB; else fixed 4 KiB
  std::size_t consumers;   // closed-loop load threads (<= nproc = 4)
  std::uint32_t producers; // initial prefetch producers
  std::size_t buffer;      // initial prefetch buffer capacity, samples
  double warmup_s;         // more whole epochs after the first, untimed
};

std::optional<Spec> SpecFor(const std::string& name) {
  if (name == "uds_small_mem") {
    return Spec{Shape::kUdsSmallMem, 8000, false, 4, 2, 64, 0.0};
  }
  if (name == "uds_imagenet_files") {
    return Spec{Shape::kUdsImagenetFiles, 2000, true, 4, 2, 64, 0.0};
  }
  if (name == "tf_tiered_nvme") {
    // Warm-up after the first epoch lets the autotuner leave its
    // 1-producer start and the fast tier fill before timing.
    return Spec{Shape::kTfTieredNvme, 1000, true, 2, 1, 16, 2.0};
  }
  return std::nullopt;
}

constexpr int kDeployments = 5;
constexpr int kSlices = 10;  // end-to-end metrics: medians over slices
constexpr std::uint32_t kFullCheckEvery = 64;  // full-content check stride
constexpr std::uint32_t kMaxProducers = 4;
constexpr auto kTickInterval = std::chrono::milliseconds(25);
constexpr auto kOccupancyInterval = std::chrono::milliseconds(1);
constexpr int kPings = 2000;
constexpr std::uint64_t kMaxSampleBytes = 1 << 20;

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- Dataset ---------------------------------------------------------------

struct Dataset {
  std::vector<std::string> names;
  std::vector<std::uint64_t> sizes;
  /// Per-sample identity: the first 8 content bytes, and the seed of
  /// the rest of the content.
  std::vector<std::uint64_t> tags;
  std::unordered_map<std::string, std::uint32_t> index;
  std::uint64_t total_bytes = 0;
};

void FillContent(std::uint64_t tag, std::span<std::byte> dst) {
  std::size_t i = 0;
  std::uint64_t word = 0;
  for (; i + 8 <= dst.size(); i += 8, ++word) {
    const std::uint64_t v = word == 0 ? tag : Mix(tag + word);
    std::memcpy(dst.data() + i, &v, 8);
  }
  if (i < dst.size()) {
    const std::uint64_t v = Mix(tag + word);
    std::memcpy(dst.data() + i, &v, dst.size() - i);
  }
}

Dataset MakeDataset(const Spec& spec, std::uint64_t seed) {
  const std::size_t n =
      spec.base_files + Mix(seed) % (spec.base_files / 100 + 1);
  Dataset ds;
  if (spec.imagenet_sizes) {
    prisma::storage::SyntheticImageNetSpec s;
    s.num_train = n;
    s.num_validation = 0;
    s.seed = seed;
    const auto generated = prisma::storage::MakeSyntheticImageNet(s);
    for (const auto& f : generated.train.files()) {
      ds.names.push_back(f.name);
      // Capping the log-normal tail fixes the consumers' buffer size, so
      // peak RSS does not follow the seed's largest sample.
      ds.sizes.push_back(std::min<std::uint64_t>(f.size, kMaxSampleBytes));
    }
  } else {
    char name[32];
    for (std::size_t i = 0; i < n; ++i) {
      std::snprintf(name, sizeof(name), "train/%08zu.jpg", i);
      ds.names.emplace_back(name);
      ds.sizes.push_back(4096);
    }
  }
  for (std::size_t i = 0; i < ds.names.size(); ++i) {
    ds.tags.push_back(Mix(seed ^ Mix(i + 1)));
    ds.index.emplace(ds.names[i], static_cast<std::uint32_t>(i));
    ds.total_bytes += ds.sizes[i];
  }
  return ds;
}

std::shared_ptr<MemoryBackend> Prefill(
    const Dataset& ds, std::optional<prisma::storage::DeviceProfile> device) {
  auto mem = std::make_shared<MemoryBackend>(std::move(device));
  for (std::size_t i = 0; i < ds.names.size(); ++i) {
    std::vector<std::byte> bytes(ds.sizes[i]);
    FillContent(ds.tags[i], bytes);
    mem->Put(ds.names[i], prisma::SamplePayload::Adopt(std::move(bytes)));
  }
  return mem;
}

/// Writes every sample under `root` (synced, so no write-back runs in
/// the timed region) and reads each once so the page cache holds them.
Status WriteFiles(const Dataset& ds, const fsys::path& root) {
  std::vector<std::byte> buf(kMaxSampleBytes);
  for (std::size_t i = 0; i < ds.names.size(); ++i) {
    const fsys::path path = root / ds.names[i];
    std::error_code ec;
    fsys::create_directories(path.parent_path(), ec);
    const auto bytes = std::span<std::byte>(buf).first(ds.sizes[i]);
    FillContent(ds.tags[i], bytes);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Status::Internal("cannot create " + path.string());
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    const bool ok = done == bytes.size() && ::fdatasync(fd) == 0;
    ::close(fd);
    if (!ok) return Status::Internal("cannot write " + path.string());
  }
  for (const auto& name : ds.names) {
    const int fd = ::open((root / name).c_str(), O_RDONLY);
    if (fd < 0) return Status::Internal("cannot reopen " + name);
    while (::read(fd, buf.data(), buf.size()) > 0) {
    }
    ::close(fd);
  }
  return Status::Ok();
}

// --- Deployment: the system under test, built once per setup ---------------

struct Deployment {
  std::shared_ptr<TimedBackend> backend;    // the stage's storage
  std::shared_ptr<dp::Stage> stage;
  std::shared_ptr<dp::PrefetchObject> prefetch;
  std::shared_ptr<dp::TieringObject> tiering;
  std::unique_ptr<prisma::ipc::UdsServer> server;
  std::unique_ptr<prisma::frameworks::TorchWorkerClient> announcer;
  std::vector<std::unique_ptr<prisma::frameworks::TorchWorkerClient>> workers;
  std::unique_ptr<prisma::controlplane::Controller> controller;
  std::unique_ptr<prisma::frameworks::TfPosixFileSystem> tf_fs;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    workers.clear();
    announcer.reset();
    if (server) server->Stop();
    controller.reset();
    if (stage) stage->Stop();
  }
};

Result<std::unique_ptr<Deployment>> Deploy(
    const Spec& spec, const Dataset& ds,
    const std::shared_ptr<prisma::storage::StorageBackend>& storage,
    const std::string& socket_path) {
  auto d = std::make_unique<Deployment>();
  d->backend = std::make_shared<TimedBackend>(
      storage, trace::Kind::kBackendRead, trace::Kind::kBackendStat,
      trace::Kind::kBackendStat);
  const bool tf = spec.shape == Shape::kTfTieredNvme;
  dp::PipelineOptions po;
  po.prefetch.initial_producers = spec.producers;
  po.prefetch.max_producers = kMaxProducers;
  po.prefetch.buffer_capacity = spec.buffer;
  if (tf) {
    po.tiering.fast_tier_capacity = ds.total_bytes / 2;
    po.fast_tier = std::make_shared<TimedBackend>(
        std::make_shared<MemoryBackend>(), trace::Kind::kFastRead,
        trace::Kind::kFastWrite, trace::Kind::kFastOther);
  }
  auto pipeline =
      dp::BuildStagePipeline(tf ? "prefetch|tiering" : "prefetch", d->backend,
                             po, prisma::SteadyClock::Shared());
  if (!pipeline.ok()) return pipeline.status();
  d->stage = std::make_shared<dp::Stage>(
      dp::StageInfo{"perfbench", tf ? "tensorflow" : "pytorch", 0, 1.0},
      std::move(*pipeline));
  d->prefetch = std::dynamic_pointer_cast<dp::PrefetchObject>(
      d->stage->pipeline().FindLayer("prefetch"));
  d->tiering = std::dynamic_pointer_cast<dp::TieringObject>(
      d->stage->pipeline().FindLayer("tiering"));
  if (Status s = d->stage->Start(); !s.ok()) return s;

  if (tf) {
    d->controller = std::make_unique<prisma::controlplane::Controller>(
        "perfbench", prisma::controlplane::ControllerOptions{},
        [] {
          prisma::controlplane::AutotunerOptions o;
          o.min_producers = 1;
          o.max_producers = kMaxProducers;
          o.target_object = "prefetch";
          return std::make_unique<
              prisma::controlplane::PrismaAutotunePolicy>(o);
        },
        prisma::SteadyClock::Shared());
    if (Status s = d->controller->Attach(d->stage); !s.ok()) return s;
    d->tf_fs = std::make_unique<prisma::frameworks::TfPosixFileSystem>(
        d->backend, d->stage);
    return d;
  }

  d->server = std::make_unique<prisma::ipc::UdsServer>(socket_path, d->stage);
  if (Status s = d->server->Start(); !s.ok()) return s;
  d->announcer = std::make_unique<prisma::frameworks::TorchWorkerClient>();
  if (Status s = d->announcer->Connect(socket_path); !s.ok()) return s;
  for (std::size_t c = 0; c < spec.consumers; ++c) {
    auto w = std::make_unique<prisma::frameworks::TorchWorkerClient>();
    if (Status s = w->Connect(socket_path); !s.ok()) return s;
    if (Status s = w->raw_client().Ping(); !s.ok()) return s;
    d->workers.push_back(std::move(w));
  }
  return d;
}

// --- Closed-loop epochs ----------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Restarts the kernel's peak-RSS tracking (VmHWM) from the current RSS.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak RSS since the last ResetPeakRss, in MiB.
double PeakRssMiB() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};  // no procfs: the process-lifetime peak
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile of a sorted vector (0 when empty).
template <typename T>
double Percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t i = std::clamp<std::size_t>(rank, 1, sorted.size()) - 1;
  return static_cast<double>(sorted[i]);
}

template <typename T>
double SortedPercentile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  return Percentile(v, q);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A stretch of whole epochs. A phase is cut into slices so end-to-end
/// metrics can be medians over slices: a burst of outside load spoils a
/// slice, not the run.
struct Slice {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t allocs = 0;
  std::vector<float> latencies_us;  // sorted
};

struct PhaseResult {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::vector<Slice> slices;
};

template <typename F>
double MedianOverSlices(const std::vector<Slice>& slices, F metric) {
  std::vector<double> v;
  for (const auto& s : slices) v.push_back(metric(s));
  return SortedPercentile(std::move(v), 0.5);
}

class EpochRunner {
 public:
  EpochRunner(const Spec& spec, const Dataset& ds, Deployment& dep,
              std::uint64_t seed, std::size_t latency_capacity)
      : ds_(ds), dep_(dep), seed_(seed), order_(ds.names) {
    perm_.resize(ds.names.size());
    for (std::size_t i = 0; i < perm_.size(); ++i) {
      perm_[i] = static_cast<std::uint32_t>(i);
    }
    consumers_.resize(spec.consumers);
    for (auto& c : consumers_) {
      c.latencies_us.reserve(latency_capacity);
      c.dst.resize(kMaxSampleBytes);
      c.scratch.resize(kMaxSampleBytes);
    }
    for (std::size_t c = 0; c < consumers_.size(); ++c) {
      consumers_[c].thread = std::thread([this, c] { ConsumerLoop(c); });
    }
  }

  ~EpochRunner() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    start_cv_.notify_all();
    for (auto& c : consumers_) c.thread.join();
  }

  EpochRunner(const EpochRunner&) = delete;
  EpochRunner& operator=(const EpochRunner&) = delete;

  /// Runs whole epochs for at least `seconds` (and at least one), cut
  /// into about `slices` slices.
  Result<PhaseResult> RunPhase(double seconds, int slices) {
    for (auto& c : consumers_) c.latencies_us.clear();
    using Clock = std::chrono::steady_clock;
    const auto since = [](Clock::time_point t) {
      return std::chrono::duration<double>(Clock::now() - t).count();
    };
    PhaseResult r;
    // Latency-vector lengths at each slice boundary, per consumer.
    std::vector<std::vector<std::size_t>> marks(consumers_.size(), {0});
    const auto t0 = Clock::now();
    do {
      Slice slice;
      const std::uint64_t samples0 = samples();
      const double cpu0 = CpuSeconds();
      const std::uint64_t allocs0 = AllocationCount();
      const auto slice_t0 = Clock::now();
      do {
        if (Status s = RunEpoch(next_epoch_++); !s.ok()) return s;
      } while (since(slice_t0) < seconds / slices);
      slice.wall_s = since(slice_t0);
      slice.allocs = AllocationCount() - allocs0;
      slice.cpu_s = CpuSeconds() - cpu0;
      slice.samples = samples() - samples0;
      for (std::size_t c = 0; c < consumers_.size(); ++c) {
        marks[c].push_back(consumers_[c].latencies_us.size());
      }
      r.slices.push_back(std::move(slice));
    } while (since(t0) < seconds);
    r.wall_s = since(t0);
    for (std::size_t i = 0; i < r.slices.size(); ++i) {
      auto& lat = r.slices[i].latencies_us;
      for (std::size_t c = 0; c < consumers_.size(); ++c) {
        const auto& v = consumers_[c].latencies_us;
        lat.insert(lat.end(), v.begin() + marks[c][i],
                   v.begin() + marks[c][i + 1]);
      }
      std::sort(lat.begin(), lat.end());
      r.samples += r.slices[i].samples;
    }
    return r;
  }

  std::uint64_t samples() const {
    std::uint64_t n = 0;
    for (const auto& c : consumers_) n += c.samples;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& c : consumers_) n += c.failed;
    return n;
  }

  // Probes the main thread takes while tracing.
  double occupancy_mean() const {
    return occupancy_n_ == 0 ? 0.0 : occupancy_sum_ / occupancy_n_;
  }
  std::uint64_t knob_changes() const { return knob_changes_; }

 private:
  struct Consumer {
    std::vector<float> latencies_us;  // reserved up front; never grows
    std::uint64_t samples = 0;  // attempted, warm-up included
    std::uint64_t failed = 0;
    std::vector<std::byte> dst;
    std::vector<std::byte> scratch;
    std::thread thread;
  };

  /// Epoch order: a seeded Fisher-Yates step over the previous order;
  /// perm_ tracks each slot's sample index.
  void Shuffle(std::uint32_t epoch) {
    std::uint64_t state = Mix(seed_ ^ Mix(0x5eed0000ull + epoch));
    for (std::size_t i = order_.size(); i > 1; --i) {
      state = Mix(state);
      const std::size_t j = state % i;
      std::swap(order_[i - 1], order_[j]);
      std::swap(perm_[i - 1], perm_[j]);
    }
  }

  Status RunEpoch(std::uint32_t epoch) {
    Shuffle(epoch);
    trace::SetEpoch(epoch);
    const std::int64_t t0 = trace::NowNs();
    Status s = dep_.announcer ? dep_.announcer->AnnounceEpoch(epoch, order_)
                              : dep_.stage->BeginEpoch(epoch, order_);
    if (trace::Enabled()) {
      trace::Record(trace::Kind::kBeginEpoch, t0, trace::NowNs(), epoch,
                    trace::kNoSample);
    }
    if (!s.ok()) return s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_ = epoch;
      running_ = consumers_.size();
      ++generation_;
    }
    start_cv_.notify_all();

    std::unique_lock<std::mutex> lock(mu_);
    const auto done = [this] { return running_ == 0; };
    while (!done()) {
      const bool traced = trace::Enabled();
      if (!dep_.controller && !traced) {
        done_cv_.wait(lock, done);
        break;
      }
      done_cv_.wait_for(lock, traced ? kOccupancyInterval : kTickInterval,
                        done);
      if (done()) break;
      lock.unlock();
      if (dep_.controller && std::chrono::steady_clock::now() >= next_tick_) {
        Tick();
        next_tick_ = std::chrono::steady_clock::now() + kTickInterval;
      }
      if (traced) {
        occupancy_sum_ +=
            static_cast<double>(dep_.prefetch->buffer().Occupancy());
        ++occupancy_n_;
      }
      lock.lock();
    }
    return Status::Ok();
  }

  void Tick() {
    const std::int64_t t0 = trace::NowNs();
    dep_.controller->TickOnce();
    if (!trace::Enabled()) return;
    trace::Record(trace::Kind::kControllerTick, t0, trace::NowNs(),
                  trace::CurrentEpoch(), trace::kNoSample);
    const auto obs = dep_.controller->LastObservations();
    if (!obs.empty() && !obs.front().applied.Empty()) ++knob_changes_;
  }

  Result<std::size_t> ReadSample(std::size_t c, const std::string& name,
                                 std::span<std::byte> dst) {
    if (dep_.tf_fs) {
      // TensorFlow's input path: stat, open, read the whole file.
      const auto size = dep_.tf_fs->GetFileSize(name);
      if (!size.ok()) return size.status();
      if (*size > dst.size()) return Status::OutOfRange("sample too large");
      auto file = dep_.tf_fs->NewRandomAccessFile(name);
      if (!file.ok()) return file.status();
      return (*file)->Read(0, dst.first(static_cast<std::size_t>(*size)));
    }
    return dep_.workers[c]->GetItemInto(name, dst);
  }

  bool Verify(std::uint32_t idx, std::uint32_t epoch,
              const Result<std::size_t>& n, Consumer& c) {
    if (!n.ok()) {
      if (!error_logged_.exchange(true)) {
        std::fprintf(stderr, "perfbench: read of %s failed: %s\n",
                     ds_.names[idx].c_str(), n.status().ToString().c_str());
      }
      return false;
    }
    const std::uint64_t size = ds_.sizes[idx];
    if (*n != size) return false;
    if (std::memcmp(c.dst.data(), &ds_.tags[idx], 8) != 0) return false;
    if ((idx + epoch) % kFullCheckEvery != 0) return true;
    const auto expect = std::span<std::byte>(c.scratch).first(size);
    FillContent(ds_.tags[idx], expect);
    return std::memcmp(c.dst.data(), expect.data(), size) == 0;
  }

  void ConsumerLoop(std::size_t ci) {
    Consumer& c = consumers_[ci];
    std::uint64_t seen = 0;
    for (;;) {
      std::uint32_t epoch = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return quit_ || generation_ != seen; });
        if (quit_) return;
        seen = generation_;
        epoch = epoch_;
      }
      for (std::size_t i = ci; i < order_.size(); i += consumers_.size()) {
        const std::uint32_t idx = perm_[i];
        const std::int64_t t0 = trace::NowNs();
        const auto n = ReadSample(ci, order_[i], c.dst);
        const std::int64_t t1 = trace::NowNs();
        if (trace::Enabled()) {
          trace::Record(trace::Kind::kClientRead, t0, t1, epoch, idx);
        }
        if (c.latencies_us.size() < c.latencies_us.capacity()) {
          c.latencies_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
        }
        ++c.samples;
        if (!Verify(idx, epoch, n, c)) ++c.failed;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--running_ == 0) done_cv_.notify_one();
      }
    }
  }

  const Dataset& ds_;
  Deployment& dep_;
  const std::uint64_t seed_;

  // Written by the main thread only while every consumer waits for the
  // next generation; the mutex hand-off publishes them.
  std::vector<std::string> order_;
  std::vector<std::uint32_t> perm_;
  std::uint32_t next_epoch_ = 0;
  std::chrono::steady_clock::time_point next_tick_{};
  double occupancy_sum_ = 0.0;
  std::uint64_t occupancy_n_ = 0;
  std::uint64_t knob_changes_ = 0;
  std::atomic<bool> error_logged_{false};

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // guarded by mu_
  std::uint32_t epoch_ = 0;       // guarded by mu_
  std::size_t running_ = 0;       // guarded by mu_
  bool quit_ = false;             // guarded by mu_

  std::vector<Consumer> consumers_;  // threads last: they use the above
};

// --- Layer counters, snapshotted around the traced phase -------------------

struct LayerSnapshot {
  dp::StageStatsSnapshot prefetch;
  dp::TieringObject::TierCounters tiering;
  std::uint64_t requests = 0;
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t backend_read_ns = 0;
};

LayerSnapshot Snapshot(const Deployment& d) {
  LayerSnapshot s;
  s.prefetch = d.prefetch->CollectStats();
  if (d.tiering) s.tiering = d.tiering->Counters();
  if (d.server) s.requests = d.server->requests_served();
  s.copies = prisma::CopyAccounting::Copies();
  s.copied_bytes = prisma::CopyAccounting::CopiedBytes();
  s.backend_reads = d.backend->traced_reads();
  s.backend_read_ns = d.backend->traced_read_ns();
  return s;
}

double PerSample(double delta, std::uint64_t samples) {
  return samples == 0 ? 0.0 : delta / static_cast<double>(samples);
}

void AppendEndToEnd(std::vector<Metric>& m, const std::vector<Slice>& slices,
                    std::vector<double> setup_s,
                    std::vector<double> peak_rss_mib) {
  const auto median = [&](auto metric) {
    return MedianOverSlices(slices, metric);
  };
  m.push_back({"samples_per_s", "1/s",
               median([](const Slice& s) { return s.samples / s.wall_s; })});
  m.push_back({"read_p50_us", "us", median([](const Slice& s) {
                 return Percentile(s.latencies_us, 0.50);
               })});
  m.push_back({"read_p99_us", "us", median([](const Slice& s) {
                 return Percentile(s.latencies_us, 0.99);
               })});
  m.push_back({"cpu_us_per_sample", "us", median([](const Slice& s) {
                 return PerSample(s.cpu_s * 1e6, s.samples);
               })});
  m.push_back({"allocs_per_sample", "count", median([](const Slice& s) {
                 return PerSample(static_cast<double>(s.allocs), s.samples);
               })});
  m.push_back({"peak_rss_mib", "MiB",
               SortedPercentile(std::move(peak_rss_mib), 0.5)});
  m.push_back({"setup_s", "s", SortedPercentile(std::move(setup_s), 0.5)});
}

/// Per-layer metrics of the traced phase `traced`, between snapshots
/// `a` and `b`; `plain_sps` is the untraced phase's throughput.
void AppendPerLayer(std::vector<Metric>& m, const Deployment& dep,
                    const EpochRunner& runner, const LayerSnapshot& a,
                    const LayerSnapshot& b, const PhaseResult& traced,
                    std::int64_t traced_from, double plain_sps,
                    std::vector<double> pings) {
  const bool uds = dep.server != nullptr;
  const std::uint64_t n = traced.samples;
  const auto spans = [&](trace::Kind k) {
    auto v = trace::DurationsUs(k, traced_from);
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const auto ratio = [](double part, double whole) {
    return whole == 0.0 ? 0.0 : part / whole;
  };
  const auto& pa = a.prefetch;
  const auto& pb = b.prefetch;
  const double wait_us = PerSample(
      prisma::ToSeconds(pb.consumer_wait_time - pa.consumer_wait_time) * 1e6,
      n);
  const double hits = delta(pb.consumer_hits, pa.consumer_hits);
  const double waits = delta(pb.consumer_waits, pa.consumer_waits);
  const double consumed = delta(pb.samples_consumed, pa.samples_consumed);
  const double passthrough = delta(pb.passthrough_reads, pa.passthrough_reads);
  const double fast_hits = delta(b.tiering.fast_hits, a.tiering.fast_hits);
  const double slow_reads = delta(b.tiering.slow_reads, a.tiering.slow_reads);
  const auto backend = spans(trace::Kind::kBackendRead);
  const auto ticks = spans(trace::Kind::kControllerTick);
  std::sort(pings.begin(), pings.end());

  m.push_back({"ipc.self_us_per_sample", "us",
               uds ? Mean(spans(trace::Kind::kClientRead)) - wait_us : 0.0});
  m.push_back({"ipc.ping_us.p50", "us", Percentile(pings, 0.5)});
  m.push_back({"ipc.requests_per_sample", "count",
               PerSample(delta(b.requests, a.requests), n)});
  m.push_back({"ipc.server_threads", "count",
               uds ? static_cast<double>(dep.server->server_threads()) : 0.0});
  m.push_back({"ipc.copies_per_sample", "count",
               PerSample(delta(b.copies, a.copies), n)});
  m.push_back({"ipc.bytes_copied_per_sample", "B",
               PerSample(delta(b.copied_bytes, a.copied_bytes), n)});
  m.push_back({"prefetch.hit_frac", "ratio", ratio(hits, hits + waits)});
  m.push_back({"prefetch.wait_us_per_sample", "us", wait_us});
  m.push_back({"prefetch.buffered_frac", "ratio",
               ratio(consumed, consumed + passthrough)});
  m.push_back({"prefetch.producer_blocks_per_sample", "count",
               PerSample(delta(pb.producer_blocks, pa.producer_blocks), n)});
  m.push_back({"prefetch.occupancy_mean", "samples", runner.occupancy_mean()});
  m.push_back({"prefetch.pool_miss_per_sample", "count",
               PerSample(delta(pb.pool_misses, pa.pool_misses), n)});
  m.push_back({"stage.begin_epoch_ms", "ms",
               Percentile(spans(trace::Kind::kBeginEpoch), 0.5) / 1e3});
  m.push_back({"backend.read_us.p50", "us", Percentile(backend, 0.50)});
  m.push_back({"backend.read_us.p99", "us", Percentile(backend, 0.99)});
  m.push_back({"backend.reads_per_sample", "count",
               PerSample(delta(b.backend_reads, a.backend_reads), n)});
  m.push_back({"backend.concurrency_mean", "reads",
               delta(b.backend_read_ns, a.backend_read_ns) /
                   (traced.wall_s * 1e9)});
  m.push_back({"tiering.fast_hit_frac", "ratio",
               ratio(fast_hits, fast_hits + slow_reads)});
  m.push_back({"tiering.promotions_per_sample", "count",
               PerSample(delta(b.tiering.promotions, a.tiering.promotions),
                         n)});
  m.push_back({"tiering.demotions_per_sample", "count",
               PerSample(delta(b.tiering.demotions, a.tiering.demotions), n)});
  m.push_back({"tiering.fast_read_errors", "count",
               delta(b.tiering.fast_read_errors, a.tiering.fast_read_errors)});
  m.push_back({"tiering.fast_read_us.p50", "us",
               Percentile(spans(trace::Kind::kFastRead), 0.5)});
  m.push_back({"tiering.fast_write_us.p50", "us",
               Percentile(spans(trace::Kind::kFastWrite), 0.5)});
  m.push_back({"controller.tick_us.p50", "us", Percentile(ticks, 0.50)});
  m.push_back({"controller.tick_us.p99", "us", Percentile(ticks, 0.99)});
  m.push_back({"controller.knob_changes", "count",
               static_cast<double>(runner.knob_changes())});
  double producers = 0.0;
  double buffer = 0.0;
  if (dep.controller) {
    const auto obs = dep.controller->LastObservations();
    if (!obs.empty()) {
      producers = obs.front().stats.producers;
      buffer = static_cast<double>(obs.front().stats.buffer_capacity);
    }
  }
  m.push_back({"controller.producers_final", "count", producers});
  m.push_back({"controller.buffer_final", "samples", buffer});
  m.push_back({"trace.overhead_pct", "%",
               (plain_sps / (traced.samples / traced.wall_s) - 1.0) * 100.0});
}

}  // namespace

RunResult RunWorkload(const RunOptions& opt) {
  RunResult out;
  const auto spec = SpecFor(opt.workload);
  if (!spec) {
    out.error = "unknown workload '" + opt.workload + "'";
    return out;
  }
  const bool uds = spec->shape != Shape::kTfTieredNvme;
  if (opt.trace) {
    // 24 threads x 32k spans (18 MiB): a few seconds of the busiest
    // thread, ample for per-layer percentiles. A full buffer drops its
    // later spans (reported), never blocks; counters stay exact.
    trace::Init(24, 1 << 15);
  }

  // Inputs: derived from the seed alone.
  const Dataset ds = MakeDataset(*spec, opt.seed);
  trace::SetSampleIndex(&ds.index);
  std::error_code ec;
  fsys::create_directories(opt.work_dir, ec);
  std::shared_ptr<prisma::storage::StorageBackend> storage;
  switch (spec->shape) {
    case Shape::kUdsSmallMem:
      storage = Prefill(ds, std::nullopt);
      break;
    case Shape::kUdsImagenetFiles: {
      const fsys::path root = fsys::path(opt.work_dir) / "files";
      if (Status s = WriteFiles(ds, root); !s.ok()) {
        out.error = s.ToString();
        return out;
      }
      storage = std::make_shared<prisma::storage::PosixBackend>(root);
      break;
    }
    case Shape::kTfTieredNvme:
      storage = Prefill(ds, prisma::storage::DeviceProfile::NvmeP4600());
      break;
  }

  // Latency slots per consumer: generous for the fastest rate seen (a
  // full buffer stops recording; the counts stay exact).
  const auto capacity = static_cast<std::size_t>(
      (opt.seconds + 1.0) * 400000.0 / static_cast<double>(spec->consumers));

  // Several deployments, each from nothing to one delivered cold epoch
  // (setup_s is the median). Untraced runs then time every deployment
  // for an equal share of --seconds: how the scheduler places a
  // deployment's threads lasts as long as the deployment, so spreading
  // the timed slices over several deployments steadies the result.
  // Traced runs measure the last deployment only.
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mib;
  std::vector<Slice> slices;
  std::uint64_t timed_samples = 0;
  std::uint64_t timed_copies = 0;
  for (int i = 0; i < kDeployments; ++i) {
    const bool last = i + 1 == kDeployments;
    // Each deployment's peak RSS counts from the same baseline: the
    // inputs plus what the allocator keeps after the last teardown.
    ::malloc_trim(0);
    ResetPeakRss();
    const std::string socket =
        (fsys::path(opt.work_dir) / ("s" + std::to_string(i) + ".sock"))
            .string();
    const auto t0 = std::chrono::steady_clock::now();
    auto dep = Deploy(*spec, ds, storage, socket);
    if (!dep.ok()) {
      out.error = "setup: " + dep.status().ToString();
      return out;
    }
    // Declared after the deployment: its consumer threads use it.
    EpochRunner runner(*spec, ds, **dep, opt.seed, capacity);
    const auto retire = [&] {
      out.attempted += runner.samples();
      out.failed += runner.failed();
    };
    const auto fail = [&](const char* what, const Status& s) {
      retire();
      out.error = std::string(what) + ": " + s.ToString();
      return out;
    };
    if (auto first = runner.RunPhase(0.0, 1); !first.ok()) {
      return fail("first epoch", first.status());
    }
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    if (uds) {
      out.engine = std::string((*dep)->server->engine_name());
      out.server_threads = (*dep)->server->server_threads();
    }
    if (spec->warmup_s > 0.0 && (!opt.trace || last)) {
      if (auto warm = runner.RunPhase(spec->warmup_s, 1); !warm.ok()) {
        return fail("warm-up", warm.status());
      }
    }

    if (!opt.trace) {
      const std::uint64_t copies0 = prisma::CopyAccounting::Copies();
      auto timed = runner.RunPhase(opt.seconds / kDeployments,
                                   kSlices / kDeployments);
      if (!timed.ok()) return fail("timed epochs", timed.status());
      timed_copies += prisma::CopyAccounting::Copies() - copies0;
      timed_samples += timed->samples;
      peak_rss_mib.push_back(PeakRssMiB());
      for (auto& s : timed->slices) slices.push_back(std::move(s));
    } else if (last) {
      std::vector<double> pings;
      for (int p = 0; uds && p < kPings; ++p) {
        const std::int64_t p0 = trace::NowNs();
        if (!(*dep)->workers.front()->raw_client().Ping().ok()) break;
        pings.push_back((trace::NowNs() - p0) / 1e3);
      }
      const std::uint64_t copies0 = prisma::CopyAccounting::Copies();
      auto plain = runner.RunPhase(opt.seconds / 2.0, 1);
      if (!plain.ok()) return fail("untraced epochs", plain.status());
      timed_copies += prisma::CopyAccounting::Copies() - copies0;
      timed_samples += plain->samples;

      const LayerSnapshot a = Snapshot(**dep);
      const std::int64_t traced_from = trace::NowNs();
      trace::Enable(true);
      auto traced = runner.RunPhase(opt.seconds / 2.0, 1);
      trace::Enable(false);
      if (!traced.ok()) return fail("traced epochs", traced.status());
      AppendPerLayer(out.metrics, **dep, runner, a, Snapshot(**dep), *traced,
                     traced_from, plain->samples / plain->wall_s,
                     std::move(pings));
    }
    retire();
  }

  if (!opt.trace) {
    std::fprintf(stderr, "# slices samples_per_s:");
    for (const auto& s : slices) {
      std::fprintf(stderr, " %.0f", s.samples / s.wall_s);
    }
    std::fprintf(stderr, "\n");
    AppendEndToEnd(out.metrics, slices, std::move(setup_s),
                   std::move(peak_rss_mib));
  }
  const double copies_per_sample =
      PerSample(static_cast<double>(timed_copies), timed_samples);
  if (uds && std::fabs(copies_per_sample - 1.0) >= 5e-4) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "ipc.copies_per_sample = %.4f, expected 1.000",
                  copies_per_sample);
    out.violations.emplace_back(msg);
  }
  if (opt.trace) {
    out.span_file =
        (fsys::path(opt.work_dir) / ("spans_" + opt.workload + ".csv"))
            .string();
    if (!trace::WriteCsv(out.span_file)) {
      out.violations.push_back("cannot write span file");
    }
    if (trace::Dropped() > 0) {
      std::fprintf(stderr, "perfbench: %llu spans dropped (buffers full)\n",
                   static_cast<unsigned long long>(trace::Dropped()));
    }
  }
  fsys::remove_all(fsys::path(opt.work_dir) / "files", ec);
  out.ran = true;
  return out;
}

}  // namespace perfbench
