#include "src/obs/profile.h"

#ifndef ROCK_OBS_DISABLE_PROFILER

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/timer.h"
#include "src/obs/exporters.h"

// glibc only gained the public sigev_notify_thread_id accessor recently;
// older headers spell the SIGEV_THREAD_ID target via the internal union.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace rock::obs {
namespace {

pid_t ThisTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

/// Deepest raw stack the handler captures. Deeper frames are truncated at
/// the root end — the leaf (hot) frames always survive.
constexpr int kMaxFrames = 48;

/// One raw sample, written inside the SIGPROF handler: PCs only, never
/// strings. `ready` is the publication flag a concurrent snapshot
/// honours, so a half-written sample is never symbolized.
struct Sample {
  std::atomic<bool> ready{false};
  int depth = 0;
  uint32_t tid = 0;
  void* pcs[kMaxFrames] = {};
};

/// Preallocated, never-wrapping sample arena. Reservation is one relaxed
/// fetch_add; overflow increments `dropped` instead of overwriting, so a
/// long run degrades to a truncated profile, never a corrupt one. Buffers
/// are retired (leaked) rather than freed: a SIGPROF already in flight
/// when the profiler stops may still dereference the pointer a beat
/// later.
struct SampleBuffer {
  explicit SampleBuffer(size_t cap)
      : capacity(cap), samples(new Sample[cap]) {}
  const size_t capacity;
  Sample* const samples;
  std::atomic<uint64_t> reserved{0};
  std::atomic<uint64_t> dropped{0};
};

std::atomic<SampleBuffer*> g_buffer{nullptr};
std::atomic<bool> g_armed{false};

/// Async-signal-safe by construction: atomics, a raw gettid syscall, and
/// backtrace(3) — whose lazy libgcc initialization Start() forces outside
/// signal context before arming any timer. errno is saved and restored so
/// an interrupted syscall's caller never sees it clobbered.
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ucontext*/) {
  int saved_errno = errno;
  if (g_armed.load(std::memory_order_acquire)) {
    SampleBuffer* buffer = g_buffer.load(std::memory_order_acquire);
    if (buffer != nullptr) {
      uint64_t index = buffer->reserved.fetch_add(1, std::memory_order_relaxed);
      if (index < buffer->capacity) {
        Sample& sample = buffer->samples[index];
        sample.tid = static_cast<uint32_t>(ThisTid());
        sample.depth = ::backtrace(sample.pcs, kMaxFrames);
        sample.ready.store(true, std::memory_order_release);
      } else {
        buffer->dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  errno = saved_errno;
}

struct ThreadTimer {
  timer_t timer{};
  bool armed = false;
};

struct ProfilerState {
  common::Mutex mu;
  std::map<pid_t, ThreadTimer> threads ROCK_GUARDED_BY(mu);
  bool running ROCK_GUARDED_BY(mu) = false;
  bool handler_installed ROCK_GUARDED_BY(mu) = false;
  ProfileOptions options ROCK_GUARDED_BY(mu);
  double started_seconds ROCK_GUARDED_BY(mu) = 0.0;
  double duration_seconds ROCK_GUARDED_BY(mu) = 0.0;
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();
  return *state;
}

Status ArmTimer(pid_t tid, int hz, timer_t* out) {
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tid;
  timer_t timer{};
  // CLOCK_THREAD_CPUTIME_ID ticks only while the target thread is on a
  // CPU: idle threads are never interrupted, busy threads are sampled in
  // proportion to the CPU they burn.
  if (::timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer) != 0) {
    return Status::Internal(std::string("timer_create(tid=") +
                            std::to_string(tid) + "): " +
                            std::strerror(errno));
  }
  itimerspec spec{};
  long interval_ns = 1000000000L / (hz > 0 ? hz : 1);
  spec.it_interval.tv_nsec = interval_ns;
  spec.it_value.tv_nsec = interval_ns;
  if (::timer_settime(timer, 0, &spec, nullptr) != 0) {
    std::string err = std::strerror(errno);
    ::timer_delete(timer);
    return Status::Internal("timer_settime: " + err);
  }
  *out = timer;
  return Status::Ok();
}

/// Unregisters a thread from the profiled set when it exits, so Start()
/// never arms a timer at a dead tid.
struct ThreadProfileGuard {
  bool registered = false;
  ~ThreadProfileGuard() {
    if (registered) CpuProfiler::Global().UnregisterThisThread();
  }
};
thread_local ThreadProfileGuard t_profile_guard;

/// The function symbols of the main executable's ELF .symtab. Unlike the
/// dynamic symbol table that dladdr(3) reads, it also names local
/// functions: static ones, anonymous namespaces, and the IPA clones an -O3
/// build makes (`f(int) [clone .constprop.0]`). Read from /proc/self/exe
/// once per snapshot, never in the handler; empty when the file has no
/// .symtab (a stripped binary).
class ExeSymbols {
 public:
  ExeSymbols() {
    // The first object dl_iterate_phdr reports is the main program: its
    // load bias and executable segments.
    dl_iterate_phdr(
        [](dl_phdr_info* info, size_t, void* self) {
          auto* symbols = static_cast<ExeSymbols*>(self);
          symbols->bias_ = info->dlpi_addr;
          for (int i = 0; i < info->dlpi_phnum; ++i) {
            const ElfW(Phdr)& ph = info->dlpi_phdr[i];
            if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
            const uintptr_t begin = info->dlpi_addr + ph.p_vaddr;
            symbols->text_.emplace_back(begin, begin + ph.p_memsz);
          }
          return 1;  // stop after the main program
        },
        this);
    std::ifstream exe("/proc/self/exe", std::ios::binary | std::ios::ate);
    const auto file_size =
        static_cast<uint64_t>(std::max<std::streamoff>(exe.tellg(), 0));
    // Every table read lies inside the file, which bounds each buffer
    // before it is allocated.
    auto in_file = [file_size](uint64_t offset, uint64_t bytes) {
      return offset <= file_size && bytes <= file_size - offset;
    };
    Elf64_Ehdr header{};
    if (!Read(exe, 0, &header, sizeof(header)) ||
        std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
        header.e_ident[EI_CLASS] != ELFCLASS64 ||
        header.e_shentsize != sizeof(Elf64_Shdr) ||
        !in_file(header.e_shoff, header.e_shnum * sizeof(Elf64_Shdr))) {
      return;
    }
    std::vector<Elf64_Shdr> sections(header.e_shnum);
    if (!Read(exe, header.e_shoff, sections.data(),
              sections.size() * sizeof(Elf64_Shdr))) {
      return;
    }
    for (const Elf64_Shdr& section : sections) {
      if (section.sh_type != SHT_SYMTAB || section.sh_link >= sections.size()) {
        continue;
      }
      const Elf64_Shdr& strtab = sections[section.sh_link];
      if (!in_file(section.sh_offset, section.sh_size) ||
          !in_file(strtab.sh_offset, strtab.sh_size)) {
        return;
      }
      std::vector<Elf64_Sym> raw(section.sh_size / sizeof(Elf64_Sym));
      names_.resize(strtab.sh_size);
      if (!Read(exe, section.sh_offset, raw.data(),
                raw.size() * sizeof(Elf64_Sym)) ||
          !Read(exe, strtab.sh_offset, names_.data(), names_.size())) {
        names_.clear();
        return;
      }
      for (const Elf64_Sym& sym : raw) {
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
            sym.st_name >= names_.size()) {
          continue;
        }
        const uintptr_t begin = bias_ + sym.st_value;
        symbols_.push_back({begin, begin + std::max<uint64_t>(sym.st_size, 1),
                            sym.st_name});
      }
      std::sort(symbols_.begin(), symbols_.end(),
                [](const Symbol& a, const Symbol& b) {
                  return a.begin < b.begin;
                });
      return;
    }
  }

  /// The mangled name of the main-executable function containing `pc`;
  /// nullptr when `pc` lies outside the executable's code or no symbol
  /// covers it.
  const char* Find(void* pc) const {
    const auto addr = reinterpret_cast<uintptr_t>(pc);
    const bool in_text = std::any_of(
        text_.begin(), text_.end(), [addr](const auto& segment) {
          return segment.first <= addr && addr < segment.second;
        });
    if (!in_text) return nullptr;
    auto it = std::upper_bound(
        symbols_.begin(), symbols_.end(), addr,
        [](uintptr_t a, const Symbol& sym) { return a < sym.begin; });
    if (it == symbols_.begin() || addr >= (--it)->end) return nullptr;
    return names_.c_str() + it->name;
  }

 private:
  struct Symbol {
    uintptr_t begin;
    uintptr_t end;
    uint32_t name;  // offset into names_
  };

  static bool Read(std::ifstream& in, uint64_t offset, void* out,
                   size_t bytes) {
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
    return static_cast<bool>(in);
  }

  uintptr_t bias_ = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> text_;
  std::vector<Symbol> symbols_;
  std::string names_;
};

std::string Demangle(const char* mangled) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name = status == 0 && demangled != nullptr ? demangled : mangled;
  std::free(demangled);
  return name;
}

/// Names the function at `pc`: from the executable's .symtab, else from
/// the dynamic symbols dladdr(3) finds (shared objects). Falls back to
/// "module+0xaddr" when the module has no symbol there, or the raw address.
/// Never returns a string containing ';' or whitespace, the folded
/// format's separators.
std::string SymbolizeFrame(const ExeSymbols& exe, void* pc) {
  std::string name;
  Dl_info info{};
  if (const char* mangled = exe.Find(pc)) {
    name = Demangle(mangled);
  } else if (::dladdr(pc, &info) != 0) {
    if (info.dli_sname != nullptr) {
      name = Demangle(info.dli_sname);
    } else if (info.dli_fname != nullptr) {
      const char* slash = std::strrchr(info.dli_fname, '/');
      char addr[32];
      std::snprintf(addr, sizeof(addr), "+%p", pc);
      name = std::string(slash != nullptr ? slash + 1 : info.dli_fname) + addr;
    }
  }
  if (name.empty()) {
    char addr[32];
    std::snprintf(addr, sizeof(addr), "%p", pc);
    name = addr;
  }
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = ':';
  }
  return name;
}

}  // namespace

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

Status CpuProfiler::Start(const ProfileOptions& options) {
  if (options.sample_hz <= 0 || options.sample_hz > 10000) {
    return Status::InvalidArgument("sample_hz must be in (0, 10000]");
  }
  if (options.max_samples == 0) {
    return Status::InvalidArgument("max_samples must be positive");
  }
  ProfilerState& state = State();
  common::MutexLock lock(state.mu);
  if (state.running) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (!state.handler_installed) {
    struct sigaction sa {};
    sa.sa_sigaction = SigprofHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      return Status::Internal(std::string("sigaction(SIGPROF): ") +
                              std::strerror(errno));
    }
    state.handler_installed = true;
  }
  // backtrace(3) lazily loads libgcc's unwinder on first use — which may
  // malloc and dlopen, neither async-signal-safe. Force that
  // initialization here, before any timer can fire.
  void* prime[4];
  ::backtrace(prime, 4);

  SampleBuffer* buffer = g_buffer.load(std::memory_order_acquire);
  if (buffer == nullptr || buffer->capacity < options.max_samples) {
    // The old buffer is retired, not freed — see SampleBuffer.
    g_buffer.store(new SampleBuffer(options.max_samples),
                   std::memory_order_release);
    buffer = g_buffer.load(std::memory_order_acquire);
  } else {
    uint64_t used = buffer->reserved.load(std::memory_order_relaxed);
    if (used > buffer->capacity) used = buffer->capacity;
    for (uint64_t i = 0; i < used; ++i) {
      buffer->samples[i].ready.store(false, std::memory_order_relaxed);
    }
    buffer->reserved.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }

  state.options = options;
  state.started_seconds = SteadySeconds();
  state.duration_seconds = 0.0;
  state.running = true;

  // The caller profiles too, without an explicit RegisterThisThread().
  pid_t self = ThisTid();
  state.threads.try_emplace(self);
  t_profile_guard.registered = true;

  g_armed.store(true, std::memory_order_release);
  size_t armed_count = 0;
  for (auto& [tid, entry] : state.threads) {
    if (entry.armed) continue;
    // A thread that exited between registering and now fails to arm;
    // that is not an error for the run as a whole, so keep going.
    if (ArmTimer(tid, options.sample_hz, &entry.timer).ok()) {
      entry.armed = true;
      ++armed_count;
    }
  }
  if (armed_count == 0) {
    state.running = false;
    g_armed.store(false, std::memory_order_release);
    return Status::Internal("no thread could be armed for sampling");
  }
  return Status::Ok();
}

Status CpuProfiler::Stop() {
  ProfilerState& state = State();
  common::MutexLock lock(state.mu);
  if (!state.running) {
    return Status::FailedPrecondition("profiler not running");
  }
  g_armed.store(false, std::memory_order_release);
  for (auto& [tid, entry] : state.threads) {
    if (entry.armed) {
      ::timer_delete(entry.timer);
      entry.armed = false;
    }
  }
  state.duration_seconds = SteadySeconds() - state.started_seconds;
  state.running = false;
  return Status::Ok();
}

bool CpuProfiler::running() const {
  ProfilerState& state = State();
  common::MutexLock lock(state.mu);
  return state.running;
}

void CpuProfiler::RegisterThisThread() {
  ProfilerState& state = State();
  pid_t tid = ThisTid();
  common::MutexLock lock(state.mu);
  auto [it, inserted] = state.threads.try_emplace(tid);
  t_profile_guard.registered = true;
  if (state.running && !it->second.armed) {
    if (ArmTimer(tid, state.options.sample_hz, &it->second.timer).ok()) {
      it->second.armed = true;
    }
  }
}

void CpuProfiler::UnregisterThisThread() {
  ProfilerState& state = State();
  pid_t tid = ThisTid();
  common::MutexLock lock(state.mu);
  auto it = state.threads.find(tid);
  if (it == state.threads.end()) return;
  if (it->second.armed) ::timer_delete(it->second.timer);
  state.threads.erase(it);
}

ProfileSnapshot CpuProfiler::TakeSnapshot() const {
  ProfileSnapshot snap;
  snap.enabled = true;
  {
    ProfilerState& state = State();
    common::MutexLock lock(state.mu);
    snap.running = state.running;
    snap.sample_hz = state.options.sample_hz;
    snap.duration_seconds = state.running
                                ? SteadySeconds() - state.started_seconds
                                : state.duration_seconds;
  }
  SampleBuffer* buffer = g_buffer.load(std::memory_order_acquire);
  if (buffer == nullptr) return snap;
  uint64_t reserved = buffer->reserved.load(std::memory_order_acquire);
  uint64_t count = reserved < buffer->capacity ? reserved : buffer->capacity;
  snap.dropped = buffer->dropped.load(std::memory_order_relaxed);

  // Pass 1: copy ready samples and collect unique PCs.
  std::vector<const Sample*> samples;
  samples.reserve(count);
  std::map<void*, std::string> names;
  for (uint64_t i = 0; i < count; ++i) {
    const Sample& sample = buffer->samples[i];
    if (!sample.ready.load(std::memory_order_acquire)) continue;
    samples.push_back(&sample);
    for (int f = 0; f < sample.depth; ++f) names.emplace(sample.pcs[f], "");
  }
  snap.samples = samples.size();

  // Pass 2: symbolize each unique PC once (a file read, symbol lookups
  // and demangling — allocation-heavy, which is exactly why it happens
  // here and never in the handler).
  if (!names.empty()) {
    const ExeSymbols exe;
    for (auto& [pc, name] : names) name = SymbolizeFrame(exe, pc);
  }

  // Pass 3: fold. backtrace() is leaf-first and its top frames are the
  // handler, then the kernel's signal trampoline (which dladdr cannot
  // name: glibc's __restore_rt is a local symbol), so the cut is by
  // position: everything after the frame that follows the last handler
  // frame is the interrupted stack, emitted root-first as flamegraph.pl
  // expects.
  for (const Sample* sample : samples) {
    int start = 0;
    for (int f = 0; f < sample->depth; ++f) {
      if (names[sample->pcs[f]].find("SigprofHandler") != std::string::npos) {
        start = f + 2;
      }
    }
    if (start >= sample->depth) start = sample->depth > 2 ? 2 : 0;
    std::string folded;
    for (int f = sample->depth - 1; f >= start; --f) {
      if (!folded.empty()) folded += ';';
      folded += names[sample->pcs[f]];
    }
    if (!folded.empty()) ++snap.folded[folded];
  }
  return snap;
}

std::string CpuProfiler::Folded() const {
  ProfileSnapshot snap = TakeSnapshot();
  std::string out;
  for (const auto& [stack, samples] : snap.folded) {
    out += stack;
    out += ' ';
    out += std::to_string(samples);
    out += '\n';
  }
  return out;
}

std::string CpuProfiler::Json() const {
  ProfileSnapshot snap = TakeSnapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("enabled").Bool(snap.enabled);
  w.Key("running").Bool(snap.running);
  w.Key("sample_hz").Int(snap.sample_hz);
  w.Key("samples").Uint(snap.samples);
  w.Key("dropped").Uint(snap.dropped);
  w.Key("duration_seconds").Number(snap.duration_seconds);
  w.Key("stacks").BeginArray();
  for (const auto& [stack, samples] : snap.folded) {
    w.BeginObject();
    w.Key("stack").String(stack);
    w.Key("count").Uint(samples);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void ProfilerRegisterThisThread() {
  CpuProfiler::Global().RegisterThisThread();
}

Status StartGlobalProfiler(const ProfileOptions& options) {
  return CpuProfiler::Global().Start(options);
}

Status StopGlobalProfiler() { return CpuProfiler::Global().Stop(); }

}  // namespace rock::obs

#endif  // !ROCK_OBS_DISABLE_PROFILER
