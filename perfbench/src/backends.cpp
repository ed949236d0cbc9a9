#include "backends.hpp"

#include <algorithm>
#include <thread>

#include "common/thread_pool.hpp"

namespace perfbench {

using prisma::Result;
using prisma::SamplePayload;
using prisma::Status;

MemoryBackend::MemoryBackend(
    std::optional<prisma::storage::DeviceProfile> device) {
  if (device) device_.emplace(*device);
}

void MemoryBackend::Put(const std::string& name, SamplePayload payload) {
  prisma::MutexLock lock(mu_);
  files_[name] = std::move(payload);
}

Result<SamplePayload> MemoryBackend::Lookup(const std::string& path) const {
  prisma::MutexLock lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("memory backend: " + path);
  return it->second;
}

void MemoryBackend::ChargeDevice(std::uint64_t bytes) {
  if (!device_) return;
  const std::uint32_t concurrency =
      outstanding_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::this_thread::sleep_for(device_->ServiceTime(bytes, concurrency));
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

Result<std::size_t> MemoryBackend::Read(const std::string& path,
                                        std::uint64_t offset,
                                        std::span<std::byte> dst) {
  auto payload = Lookup(path);
  if (!payload.ok()) return payload.status();
  if (offset >= payload->size()) return static_cast<std::size_t>(0);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(dst.size(), payload->size() - offset));
  ChargeDevice(n);
  std::copy_n(payload->data() + offset, n, dst.data());
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

Result<std::vector<std::byte>> MemoryBackend::ReadAll(const std::string& path) {
  auto payload = Lookup(path);
  if (!payload.ok()) return payload.status();
  ChargeDevice(payload->size());
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(payload->size(), std::memory_order_relaxed);
  const auto bytes = payload->span();
  return std::vector<std::byte>(bytes.begin(), bytes.end());
}

Result<SamplePayload> MemoryBackend::ReadAllShared(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>&) {
  auto payload = Lookup(path);
  if (!payload.ok()) return payload.status();
  ChargeDevice(payload->size());
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(payload->size(), std::memory_order_relaxed);
  return payload;
}

void MemoryBackend::ReadAllSharedAsync(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool,
    const AsyncIo& io, PayloadCallback cb) {
  if (!device_) {
    cb.fn(cb.ctx, ReadAllShared(path, pool));
    return;
  }
  if (io.offload == nullptr) {
    cb.fn(cb.ctx, Status::InvalidArgument("async read needs an offload pool"));
    return;
  }
  io.offload->Submit(
      [this, path, pool, cb] { cb.fn(cb.ctx, ReadAllShared(path, pool)); });
}

Status MemoryBackend::Write(const std::string& path,
                            std::span<const std::byte> data) {
  Put(path, SamplePayload::CopyOf(data));
  writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status MemoryBackend::Remove(const std::string& path) {
  prisma::MutexLock lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("memory backend: " + path);
  }
  return Status::Ok();
}

Result<std::uint64_t> MemoryBackend::FileSize(const std::string& path) {
  auto payload = Lookup(path);
  if (!payload.ok()) return payload.status();
  return static_cast<std::uint64_t>(payload->size());
}

prisma::storage::BackendStats MemoryBackend::Stats() const {
  prisma::storage::BackendStats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

// --- TimedBackend ---------------------------------------------------------

TimedBackend::TimedBackend(
    std::shared_ptr<prisma::storage::StorageBackend> inner,
    trace::Kind read_kind, trace::Kind write_kind, trace::Kind meta_kind)
    : inner_(std::move(inner)),
      read_kind_(read_kind),
      write_kind_(write_kind),
      meta_kind_(meta_kind) {}

void TimedBackend::RecordRead(std::int64_t start_ns, const std::string& path) {
  const std::int64_t end_ns = trace::NowNs();
  reads_.fetch_add(1, std::memory_order_relaxed);
  read_ns_.fetch_add(static_cast<std::uint64_t>(end_ns - start_ns),
                     std::memory_order_relaxed);
  trace::Record(read_kind_, start_ns, end_ns, trace::CurrentEpoch(),
                trace::SampleOf(path));
}

Result<std::size_t> TimedBackend::Read(const std::string& path,
                                       std::uint64_t offset,
                                       std::span<std::byte> dst) {
  if (!trace::Enabled()) return inner_->Read(path, offset, dst);
  const std::int64_t t0 = trace::NowNs();
  auto n = inner_->Read(path, offset, dst);
  RecordRead(t0, path);
  return n;
}

Result<std::vector<std::byte>> TimedBackend::ReadAll(const std::string& path) {
  if (!trace::Enabled()) return inner_->ReadAll(path);
  const std::int64_t t0 = trace::NowNs();
  auto bytes = inner_->ReadAll(path);
  RecordRead(t0, path);
  return bytes;
}

Result<SamplePayload> TimedBackend::ReadAllShared(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool) {
  if (!trace::Enabled()) return inner_->ReadAllShared(path, pool);
  const std::int64_t t0 = trace::NowNs();
  auto payload = inner_->ReadAllShared(path, pool);
  RecordRead(t0, path);
  return payload;
}

/// State of one traced async read: lives from issue to completion.
struct TimedBackend::AsyncSpan {
  TimedBackend* self;
  std::string path;
  std::int64_t start_ns;
  PayloadCallback cb;
};

void TimedBackend::OnAsyncDone(void* ctx, Result<SamplePayload> result) {
  std::unique_ptr<AsyncSpan> span(static_cast<AsyncSpan*>(ctx));
  span->self->RecordRead(span->start_ns, span->path);
  span->cb.fn(span->cb.ctx, std::move(result));
}

void TimedBackend::ReadAllSharedAsync(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool,
    const AsyncIo& io, PayloadCallback cb) {
  if (!trace::Enabled()) {
    inner_->ReadAllSharedAsync(path, pool, io, cb);
    return;
  }
  auto* span = new AsyncSpan{this, path, trace::NowNs(), cb};
  inner_->ReadAllSharedAsync(path, pool, io,
                             {&TimedBackend::OnAsyncDone, span});
}

Status TimedBackend::Write(const std::string& path,
                           std::span<const std::byte> data) {
  if (!trace::Enabled()) return inner_->Write(path, data);
  const std::int64_t t0 = trace::NowNs();
  Status s = inner_->Write(path, data);
  trace::Record(write_kind_, t0, trace::NowNs(), trace::CurrentEpoch(),
                trace::SampleOf(path));
  return s;
}

Status TimedBackend::Remove(const std::string& path) {
  if (!trace::Enabled()) return inner_->Remove(path);
  const std::int64_t t0 = trace::NowNs();
  Status s = inner_->Remove(path);
  trace::Record(meta_kind_, t0, trace::NowNs(), trace::CurrentEpoch(),
                trace::SampleOf(path));
  return s;
}

Result<std::uint64_t> TimedBackend::FileSize(const std::string& path) {
  if (!trace::Enabled()) return inner_->FileSize(path);
  const std::int64_t t0 = trace::NowNs();
  auto size = inner_->FileSize(path);
  trace::Record(meta_kind_, t0, trace::NowNs(), trace::CurrentEpoch(),
                trace::SampleOf(path));
  return size;
}

prisma::storage::BackendStats TimedBackend::Stats() const {
  return inner_->Stats();
}

}  // namespace perfbench
