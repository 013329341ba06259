#include "src/obs/resource.h"

#include <time.h>
#include <unistd.h>

#include <cstdio>

#ifdef ROCK_OBS_ALLOC_TRACK
#include <cstdlib>
#include <new>
#endif

namespace rock::obs {

#ifdef ROCK_OBS_ALLOC_TRACK
namespace internal {
// Constant-initialized PODs: safe to bump from the very first allocation,
// before any static constructor has run.
thread_local uint64_t t_alloc_bytes = 0;
thread_local uint64_t t_alloc_count = 0;
}  // namespace internal
#endif

double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t ThreadAllocBytes() {
#ifdef ROCK_OBS_ALLOC_TRACK
  return internal::t_alloc_bytes;
#else
  return 0;
#endif
}

uint64_t ThreadAllocCount() {
#ifdef ROCK_OBS_ALLOC_TRACK
  return internal::t_alloc_count;
#else
  return 0;
#endif
}

uint64_t ProcessRssBytes() {
  // statm field 2 is resident pages; no allocation on this path so the
  // gauge can be polled from telemetry capture without perturbing the
  // numbers it reports.
  FILE* fp = std::fopen("/proc/self/statm", "r");
  if (fp == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long rss_pages = 0;
  int fields = std::fscanf(fp, "%llu %llu", &size_pages, &rss_pages);
  std::fclose(fp);
  if (fields != 2) return 0;
  long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  return static_cast<uint64_t>(rss_pages) * static_cast<uint64_t>(page);
}

}  // namespace rock::obs

#ifdef ROCK_OBS_ALLOC_TRACK

namespace {

inline void* CountedAlloc(size_t size) {
  rock::obs::internal::t_alloc_bytes += size;
  ++rock::obs::internal::t_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}

inline void* CountedAlignedAlloc(size_t size, size_t align) {
  rock::obs::internal::t_alloc_bytes += size;
  ++rock::obs::internal::t_alloc_count;
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size != 0 ? size : align) != 0) {
    return nullptr;
  }
  return ptr;
}

[[noreturn]] void ThrowBadAlloc() { throw std::bad_alloc(); }

}  // namespace

// Global allocation hook: every operator new funnels through malloc with a
// thread-local byte/count bump first. Sanitizers intercept malloc/free
// below this layer, so ASan/TSan checking is unaffected. Frees are not
// tracked — span attribution wants allocation volume, not live bytes.
void* operator new(size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new[](size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(size_t size, std::align_val_t align) {
  void* ptr = CountedAlignedAlloc(size, static_cast<size_t>(align));
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new[](size_t size, std::align_val_t align) {
  void* ptr = CountedAlignedAlloc(size, static_cast<size_t>(align));
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<size_t>(align));
}

void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<size_t>(align));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}

#endif  // ROCK_OBS_ALLOC_TRACK
