// Thread-local heap-allocation counter: replaces the global operator
// new/delete with counting forms so a binary can measure allocations per
// unit of work (the alloc regression test, gmpx_fuzz --stats).
//
// NOT an ordinary header: including it DEFINES the global allocation
// operators.  Include it from exactly ONE translation unit per binary —
// a second inclusion in the same program is a (loud) duplicate-definition
// link error by design.  Thread-local counting keeps the figure exact
// under worker threads without putting an atomic on the allocation path;
// read the calling thread's count via gmpx::thread_alloc_count().
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace gmpx {
namespace detail {
inline thread_local uint64_t t_alloc_count = 0;
}

/// Allocations performed by the calling thread since it started.
inline uint64_t thread_alloc_count() { return detail::t_alloc_count; }

}  // namespace gmpx

namespace gmpx::detail {

inline void* counted_alloc(std::size_t n) noexcept {
  ++t_alloc_count;
  return std::malloc(n ? n : 1);
}

/// aligned_alloc wants a size that is a multiple of the alignment; the
/// block is released with std::free like every other one here.
inline void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  ++t_alloc_count;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = n == 0 ? a : (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

inline void* or_throw(void* p) {
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace gmpx::detail

// Every replaceable form is defined, so no allocation can come from the
// default allocator and be released here (or the other way round).
void* operator new(std::size_t n) { return gmpx::detail::or_throw(gmpx::detail::counted_alloc(n)); }
void* operator new[](std::size_t n) { return gmpx::detail::or_throw(gmpx::detail::counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return gmpx::detail::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return gmpx::detail::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return gmpx::detail::or_throw(gmpx::detail::counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return gmpx::detail::or_throw(gmpx::detail::counted_aligned_alloc(n, al));
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return gmpx::detail::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return gmpx::detail::counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
