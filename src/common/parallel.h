// Transient fork-join for one-shot passes over large inputs: graph setup
// (text load, symmetrization, store build) splits its work into a few
// deterministic chunks and runs each on a short-lived thread. Every
// thread is joined before RunChunks returns, so none outlives the call,
// and none exists when a caller later forks processes.
#ifndef SPINNER_COMMON_PARALLEL_H_
#define SPINNER_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>

namespace spinner {

/// std::thread::hardware_concurrency(), at least 1.
int HardwareThreads();

/// The least work, in a routine's own unit (bytes of text, edges, arcs),
/// that earns a chunk of its own: a thread costs tens of microseconds to
/// start, which a smaller chunk would not repay.
inline constexpr int64_t kMinItemsPerChunk = int64_t{1} << 18;

/// The chunk count for `items` units of work:
/// min(HardwareThreads(), items / kMinItemsPerChunk), at least 1.
int ChunkCount(int64_t items);

/// Where chunk c of `chunks` even chunks of [0, items) begins; chunk c
/// spans [ChunkBegin(items, chunks, c), ChunkBegin(items, chunks, c + 1)).
inline int64_t ChunkBegin(int64_t items, int chunks, int c) {
  return items / chunks * c + items % chunks * c / chunks;
}

/// Runs body(c) for every c in [0, chunks): chunk 0 on the caller, each
/// other chunk on a thread of its own; a thread that cannot be started
/// runs its chunk on the caller instead. Returns once every chunk has
/// finished and every thread is joined; the first chunk (by index) that
/// threw has its exception rethrown then. chunks <= 1 starts no thread.
void RunChunks(int chunks, const std::function<void(int)>& body);

/// An allocator that default-initializes: std::vector<T,
/// DefaultInitAllocator<T>>(size) of a trivial T leaves the elements
/// unwritten. A builder whose chunks write every element anyway then
/// skips a serial zeroing pass, and each chunk touches its own pages
/// first.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace spinner

#endif  // SPINNER_COMMON_PARALLEL_H_
