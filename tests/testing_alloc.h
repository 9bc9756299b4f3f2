// A counting global operator new: the fixture behind the zero-allocation
// regression tests (tests/stream/workspace_alloc_test.cc).
//
// Including this header DEFINES the program-wide replaceable allocation
// functions, so it must be included from exactly ONE translation unit per
// test binary. Every operator new in the process (library code, gtest,
// the standard library) then bumps one atomic counter; an AllocationProbe
// reads the counter around a code region:
//
//   moche::testing_alloc::AllocationProbe probe;
//   RunTheWarmedUpHotPath();
//   EXPECT_EQ(probe.Delta(), 0u);
//
// The counter counts allocation CALLS, not bytes — the contract under test
// ("the warmed-up steady state performs no heap allocation") is about
// calls. Keep gtest assertions outside the probed region when asserting
// an exact zero: a *failing* EXPECT allocates its message, which would
// double-report one failure as two.

#ifndef MOCHE_TESTS_TESTING_ALLOC_H_
#define MOCHE_TESTS_TESTING_ALLOC_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace moche {
namespace testing_alloc {

inline std::atomic<size_t> g_allocation_count{0};

inline size_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

/// Counts heap allocations between its construction and Delta().
class AllocationProbe {
 public:
  AllocationProbe() : start_(AllocationCount()) {}
  size_t Delta() const { return AllocationCount() - start_; }

 private:
  size_t start_;
};

inline void* CountedAlloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  // Zero-size requests must return a unique, freeable pointer.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace testing_alloc
}  // namespace moche

void* operator new(std::size_t size) {
  return moche::testing_alloc::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return moche::testing_alloc::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  moche::testing_alloc::g_allocation_count.fetch_add(
      1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  moche::testing_alloc::g_allocation_count.fetch_add(
      1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return moche::testing_alloc::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return moche::testing_alloc::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // MOCHE_TESTS_TESTING_ALLOC_H_
