// Replacement global operator new/delete that counts allocations per thread
// and forwards to malloc/free.  Linking this file into a program replaces
// the allocation functions for the whole process, library code included.
#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local AllocCounts t_allocs;

void* counted_malloc(std::size_t n) noexcept {
  ++t_allocs.count;
  t_allocs.bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  void* p = counted_malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocCounts thread_allocs() noexcept { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_new(n); }
void* operator new[](std::size_t n) { return perfbench::counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
