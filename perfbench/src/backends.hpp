// Storage backends owned by the benchmark.
//
// MemoryBackend serves prefilled, refcounted payloads, so no content is
// synthesized inside the timed region (SyntheticContent::Fill costs more
// per 113 KiB sample than the data plane does). Given a DeviceProfile it
// charges the device model's service time as a sleep per read: the device
// costs wall time, not CPU. It also accepts writes, which makes it the
// in-memory fast tier of the tiering workload.
//
// TimedBackend is a decorator that records a trace span around every call
// into the backend it wraps.
//
// Both forward every StorageBackend virtual — including ReadAllShared and
// ReadAllSharedAsync — so pump-mode producers and kernel-async file reads
// reach the wrapped backend's own implementation instead of the base
// class's blocking-offload default.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/mutex.hpp"
#include "storage/backend.hpp"
#include "storage/device_model.hpp"
#include "trace.hpp"

namespace perfbench {

class MemoryBackend final : public prisma::storage::StorageBackend {
 public:
  explicit MemoryBackend(
      std::optional<prisma::storage::DeviceProfile> device = std::nullopt);

  /// Adds or replaces `name` without charging the device (set-up only).
  void Put(const std::string& name, prisma::SamplePayload payload);

  prisma::Result<std::size_t> Read(const std::string& path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) override;
  prisma::Result<std::vector<std::byte>> ReadAll(
      const std::string& path) override;
  prisma::Result<prisma::SamplePayload> ReadAllShared(
      const std::string& path,
      const std::shared_ptr<prisma::BufferPool>& pool) override;
  /// Completes inline without a device (nothing can block); with one,
  /// the sleep runs on `io.offload`, never on the caller.
  void ReadAllSharedAsync(const std::string& path,
                          const std::shared_ptr<prisma::BufferPool>& pool,
                          const AsyncIo& io, PayloadCallback cb) override;
  prisma::Status Write(const std::string& path,
                       std::span<const std::byte> data) override;
  prisma::Status Remove(const std::string& path) override;
  prisma::Result<std::uint64_t> FileSize(const std::string& path) override;
  prisma::storage::BackendStats Stats() const override;

 private:
  prisma::Result<prisma::SamplePayload> Lookup(const std::string& path) const;
  /// Sleeps for the modeled service time of a `bytes` read (no-op
  /// without a device).
  void ChargeDevice(std::uint64_t bytes);

  std::optional<prisma::storage::DeviceModel> device_;
  std::atomic<std::uint32_t> outstanding_{0};

  mutable prisma::Mutex mu_{prisma::LockRank::kBackend};
  std::unordered_map<std::string, prisma::SamplePayload> files_ GUARDED_BY(mu_);

  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

class TimedBackend final : public prisma::storage::StorageBackend {
 public:
  /// `read_kind` tags reads, `write_kind` writes, `meta_kind` FileSize
  /// and Remove.
  TimedBackend(std::shared_ptr<prisma::storage::StorageBackend> inner,
               trace::Kind read_kind, trace::Kind write_kind,
               trace::Kind meta_kind);

  prisma::Result<std::size_t> Read(const std::string& path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) override;
  prisma::Result<std::vector<std::byte>> ReadAll(
      const std::string& path) override;
  prisma::Result<prisma::SamplePayload> ReadAllShared(
      const std::string& path,
      const std::shared_ptr<prisma::BufferPool>& pool) override;
  void ReadAllSharedAsync(const std::string& path,
                          const std::shared_ptr<prisma::BufferPool>& pool,
                          const AsyncIo& io, PayloadCallback cb) override;
  prisma::Status Write(const std::string& path,
                       std::span<const std::byte> data) override;
  prisma::Status Remove(const std::string& path) override;
  prisma::Result<std::uint64_t> FileSize(const std::string& path) override;
  prisma::storage::BackendStats Stats() const override;

  /// Reads completed and nanoseconds spent inside them while tracing
  /// (Σ read time / wall time = reads in flight).
  std::uint64_t traced_reads() const {
    return reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t traced_read_ns() const {
    return read_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct AsyncSpan;
  static void OnAsyncDone(void* ctx,
                          prisma::Result<prisma::SamplePayload> result);
  void RecordRead(std::int64_t start_ns, const std::string& path);

  std::shared_ptr<prisma::storage::StorageBackend> inner_;
  trace::Kind read_kind_;
  trace::Kind write_kind_;
  trace::Kind meta_kind_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> read_ns_{0};
};

}  // namespace perfbench
