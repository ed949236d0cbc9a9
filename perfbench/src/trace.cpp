#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>

namespace perfbench::trace {
namespace {

struct Span {
  std::int64_t start_ns;
  std::uint32_t dur_ns;
  std::uint32_t epoch;
  std::uint32_t sample;
  Kind kind;
};

struct Buffer {
  std::vector<Span> spans;
  // Written only by the owning thread; released so a reader that loads
  // it sees every span below it, even while a late span is in flight.
  std::atomic<std::size_t> used{0};
};

std::vector<Buffer> g_buffers;
std::atomic<std::size_t> g_next_buffer{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_epoch{0};
const std::unordered_map<std::string, std::uint32_t>* g_index = nullptr;

Buffer* MyBuffer() {
  thread_local Buffer* mine = [] {
    const std::size_t i = g_next_buffer.fetch_add(1, std::memory_order_relaxed);
    return i < g_buffers.size() ? &g_buffers[i] : nullptr;
  }();
  return mine;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kClientRead: return "client_read";
    case Kind::kBeginEpoch: return "begin_epoch";
    case Kind::kBackendRead: return "backend_read";
    case Kind::kBackendStat: return "backend_stat";
    case Kind::kFastRead: return "fast_read";
    case Kind::kFastWrite: return "fast_write";
    case Kind::kFastOther: return "fast_other";
    case Kind::kControllerTick: return "controller_tick";
  }
  return "?";
}

void Init(std::size_t threads, std::size_t spans_per_thread) {
  g_buffers = std::vector<Buffer>(threads);
  // resize() value-initializes, touching every page now rather than in
  // the traced epochs.
  for (auto& b : g_buffers) b.spans.resize(spans_per_thread);
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEpoch(std::uint32_t epoch) {
  g_epoch.store(epoch, std::memory_order_relaxed);
}
std::uint32_t CurrentEpoch() { return g_epoch.load(std::memory_order_relaxed); }

void SetSampleIndex(
    const std::unordered_map<std::string, std::uint32_t>* index) {
  g_index = index;
}

std::uint32_t SampleOf(const std::string& name) {
  if (g_index == nullptr) return kNoSample;
  const auto it = g_index->find(name);
  return it == g_index->end() ? kNoSample : it->second;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Record(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
            std::uint32_t epoch, std::uint32_t sample) {
  Buffer* b = MyBuffer();
  const std::size_t used =
      b == nullptr ? 0 : b->used.load(std::memory_order_relaxed);
  if (b == nullptr || used == b->spans.size()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::int64_t dur = std::max<std::int64_t>(end_ns - start_ns, 0);
  b->spans[used] = Span{
      start_ns,
      static_cast<std::uint32_t>(std::min<std::int64_t>(
          dur, std::numeric_limits<std::uint32_t>::max())),
      epoch, sample, kind};
  b->used.store(used + 1, std::memory_order_release);
}

std::vector<double> DurationsUs(Kind kind, std::int64_t since_ns) {
  std::vector<double> out;
  for (const auto& b : g_buffers) {
    const std::size_t used = b.used.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < used; ++i) {
      const Span& s = b.spans[i];
      if (s.kind == kind && s.start_ns >= since_ns) {
        out.push_back(s.dur_ns / 1e3);
      }
    }
  }
  return out;
}

std::uint64_t Dropped() { return g_dropped.load(std::memory_order_relaxed); }

bool WriteCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& b : g_buffers) {
    const std::size_t used = b.used.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < used; ++i) {
      origin = std::min(origin, b.spans[i].start_ns);
    }
  }
  std::fprintf(f, "kind,thread,epoch,sample,start_us,dur_us\n");
  for (std::size_t t = 0; t < g_buffers.size(); ++t) {
    const Buffer& b = g_buffers[t];
    const std::size_t used = b.used.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < used; ++i) {
      const Span& s = b.spans[i];
      std::fprintf(f, "%s,%zu,%u,%ld,%.3f,%.3f\n", KindName(s.kind), t,
                   s.epoch,
                   s.sample == kNoSample ? -1L : static_cast<long>(s.sample),
                   (s.start_ns - origin) / 1e3, s.dur_ns / 1e3);
    }
  }
  // Synced before exit: write-back of tens of MiB left to the kernel's
  // flusher would land in the timed epochs of whatever runs next.
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  return std::fclose(f) == 0 && synced;
}

}  // namespace perfbench::trace
