// Spans recorded by the benchmark around its calls into each layer.
//
// Every thread that records gets its own preallocated span buffer, so a
// span costs two clock reads and a store — no lock, no allocation. Spans
// carry (epoch, sample) as their id: a consumer's read of a sample and
// the producer's backend read that fetched it for the same epoch share
// it, which is how the span file links the two sides of one request.
// Recording is off unless Enable(true); the untraced run pays one
// relaxed load per call site.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench::trace {

enum class Kind : std::uint8_t {
  kClientRead,      // consumer-visible read of one sample (frameworks+ipc)
  kBeginEpoch,      // epoch announcement (UDS or in-process)
  kBackendRead,     // the stage's storage backend: any whole/partial read
  kBackendStat,     // the stage's storage backend: FileSize
  kFastRead,        // tiering fast tier: read
  kFastWrite,       // tiering fast tier: promotion write
  kFastOther,       // tiering fast tier: FileSize / Remove
  kControllerTick,  // Controller::TickOnce
};

const char* KindName(Kind kind);

inline constexpr std::uint32_t kNoSample = 0xffffffffu;

/// Allocates and pre-faults `threads` buffers of `spans_per_thread`
/// spans each. Call once, before any thread records.
void Init(std::size_t threads, std::size_t spans_per_thread);

void Enable(bool on);
bool Enabled();

/// Epoch stamped on spans recorded by threads that do not know it (the
/// producers); the main thread sets it before announcing an epoch.
void SetEpoch(std::uint32_t epoch);
std::uint32_t CurrentEpoch();

/// Name -> sample index map for the dataset (immutable once set).
void SetSampleIndex(
    const std::unordered_map<std::string, std::uint32_t>* index);
std::uint32_t SampleOf(const std::string& name);

std::int64_t NowNs();

/// Appends one span to the calling thread's buffer (dropped when full).
void Record(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
            std::uint32_t epoch, std::uint32_t sample);

/// Durations in microseconds of every recorded `kind` span that started
/// at or after `since_ns`.
std::vector<double> DurationsUs(Kind kind, std::int64_t since_ns);

/// Spans that did not fit their thread's buffer.
std::uint64_t Dropped();

/// Writes every recorded span as CSV
/// (kind,thread,epoch,sample,start_us,dur_us; start relative to the
/// earliest span). False on I/O failure.
bool WriteCsv(const std::string& path);

}  // namespace perfbench::trace
