#include "heap_meter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Sizes come from malloc_usable_size, so new and delete count the same
// bytes whichever delete overload the caller picks.
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t live =
      g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) + malloc_usable_size(p);
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void uncounted(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

void heap_reset_peak() { g_peak.store(g_live.load(std::memory_order_relaxed)); }

std::size_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench

// The array and nothrow forms of the standard library forward to these.
void* operator new(std::size_t n) { return counted(std::malloc(n == 0 ? 1 : n)); }

void* operator new(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  return counted(std::aligned_alloc(align, (n + align - 1) / align * align));
}

void operator delete(void* p) noexcept { uncounted(p); }

void operator delete(void* p, std::size_t) noexcept { uncounted(p); }

void operator delete(void* p, std::align_val_t) noexcept { uncounted(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept { uncounted(p); }
