// Replaces the global allocation functions of the benchmark binary with
// counting ones. The count is per thread, so the broadcast thread's and
// the listener's allocations per datagram stay separate, and it is taken
// from outside the library: nothing in src/ knows it is being counted.

#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

constinit thread_local std::uint64_t t_allocations = 0;

void* Allocate(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  void* p = nullptr;
  const std::size_t alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace perfbench {

std::uint64_t ThreadAllocations() { return t_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
