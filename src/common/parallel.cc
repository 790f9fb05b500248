#include "common/parallel.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace spinner {

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int ChunkCount(int64_t items) {
  return static_cast<int>(std::clamp<int64_t>(items / kMinItemsPerChunk, 1,
                                              HardwareThreads()));
}

void RunChunks(int chunks, const std::function<void(int)>& body) {
  chunks = std::max(chunks, 1);
  // An exception must not escape a thread (that ends the program), so
  // each chunk's is kept and the first rethrown after the join.
  std::vector<std::exception_ptr> errors(static_cast<size_t>(chunks));
  const auto run = [&](int c) {
    try {
      body(c);
    } catch (...) {
      errors[static_cast<size_t>(c)] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(chunks - 1));
  for (int c = 1; c < chunks; ++c) {
    try {
      threads.emplace_back(run, c);
    } catch (...) {
      run(c);  // no thread to be had: the caller does this chunk
    }
  }
  run(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace spinner
