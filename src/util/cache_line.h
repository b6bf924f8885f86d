#ifndef GDP_UTIL_CACHE_LINE_H_
#define GDP_UTIL_CACHE_LINE_H_

#include <cstddef>
#include <new>
#include <vector>

namespace gdp::util {

/// Cache-line size of the hosts this project targets (x86-64 and most
/// AArch64 parts). The per-lane scratch layout rule: any mutable state that
/// one thread writes while another thread writes its neighbour — per-loader
/// partitioner state, per-lane accounting counters — starts on its own line
/// and owns every line it touches. Two lanes then never share a line, so
/// their writes do not bounce it between cores (false sharing).
inline constexpr size_t kCacheLineBytes = 64;

/// Allocator whose every allocation starts on a cache-line boundary and is
/// rounded up to whole lines. A std::vector using it (LineVector) is one
/// allocation that no other object can share a line with — however small
/// the vector and however many are allocated back to back.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  static constexpr size_t RoundedBytes(size_t n) {
    return (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
           kCacheLineBytes;
  }

  T* allocate(size_t n) {
    // Raw storage for std::vector, which owns and frees it.
    return static_cast<T*>(::operator new(  // NOLINT(no-naked-new)
        RoundedBytes(n), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, RoundedBytes(n), std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose storage occupies whole cache lines of its own.
template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace gdp::util

#endif  // GDP_UTIL_CACHE_LINE_H_
