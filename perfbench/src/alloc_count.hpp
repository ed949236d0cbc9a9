// Process-wide heap allocation count. alloc_count.cpp replaces the global
// operator new family of this binary, so every allocation made by any
// thread — clients, server loops, producers, the control plane — is
// counted, not just buffer-pool misses.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations (every operator new / new[] call) since process start.
std::uint64_t AllocationCount() noexcept;

}  // namespace perfbench
