#include "profiler.hpp"

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr int kDepth = 48;
constexpr std::chrono::microseconds kInterval(500);
constexpr std::size_t kMaxSamples = 1 << 17;

// Process-wide sample buffer the signal handler writes into. Only the
// armed Profiler points it at its storage.
struct SampleState {
  void** frames = nullptr;        // capacity x kDepth
  std::uint8_t* depths = nullptr;  // frames recorded per sample
  std::size_t capacity = 0;
  std::size_t count = 0;
  std::int64_t dropped = 0;
};
SampleState g_state;

void* interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  if (g_state.frames == nullptr) {
    errno = saved_errno;
    return;
  }
  if (g_state.count >= g_state.capacity) {
    ++g_state.dropped;
    errno = saved_errno;
    return;
  }
  void* raw[kDepth + 4];
  const int n = backtrace(raw, kDepth + 4);
  void* pc = interrupted_pc(context);
  // raw[0] is this handler and raw[1] the signal trampoline; the
  // interrupted frame follows. Slot 0 keeps the exact interrupted PC,
  // the rest are return addresses of its callers.
  int first = -1;
  for (int i = 0; i < n; ++i) {
    if (raw[i] == pc) {
      first = i + 1;
      break;
    }
  }
  if (first < 0) first = n < 3 ? n : 3;
  void** out = g_state.frames + g_state.count * kDepth;
  int depth = 0;
  out[depth++] = pc != nullptr ? pc : (n > 2 ? raw[2] : nullptr);
  for (int i = first; i < n && depth < kDepth; ++i) out[depth++] = raw[i];
  g_state.depths[g_state.count] = static_cast<std::uint8_t>(depth);
  ++g_state.count;
  errno = saved_errno;
}

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("profiler: cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string layer_of(std::string_view fn) {
  int angle = 0;
  int paren = 0;
  for (std::size_t i = 0; i < fn.size(); ++i) {
    if (angle == 0 && paren == 0) {
      const bool boundary = i == 0 || fn[i - 1] == ' ' || fn[i - 1] == '*' ||
                            fn[i - 1] == '&';
      const std::string_view rest = fn.substr(i);
      if (boundary && rest.starts_with("evolve::")) {
        const std::string_view tail = rest.substr(8);
        const std::size_t end = tail.find("::");
        if (end == std::string_view::npos || end == 0) return "";
        for (char c : tail.substr(0, end)) {
          if (!identifier_char(c)) return "";
        }
        return std::string(tail.substr(0, end));
      }
      if (boundary && rest.starts_with("perfbench::")) return "bench";
      if (rest.starts_with("operator") &&
          (i == 0 || !identifier_char(fn[i - 1]))) {
        // Skip the operator's symbol so `operator<` / `operator()` do
        // not open a template or parameter list.
        i += 8;
        while (i < fn.size() && std::strchr("<>=!+-*/%&|^~[]() ", fn[i])) ++i;
        --i;
        continue;
      }
    }
    const char c = fn[i];
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      if (angle > 0) --angle;
    } else if (c == '(') {
      // A parameter list at depth 0 ends the qualified name: this
      // function is not in an evolve namespace.
      if (angle == 0 && paren == 0 && i > 0 &&
          (identifier_char(fn[i - 1]) || fn[i - 1] == '>')) {
        return "";
      }
      ++paren;
    } else if (c == ')') {
      if (paren > 0) --paren;
    }
  }
  return "";
}

Profiler::Profiler()
    : frames_(kMaxSamples * kDepth, nullptr), depths_(kMaxSamples, 0) {
  // backtrace() loads the unwinder on first use; do that here, not
  // inside the signal handler.
  void* warm[4];
  (void)backtrace(warm, 4);
}

Profiler::~Profiler() {
  stop();
  if (g_state.frames == frames_.data()) g_state = SampleState{};
}

void Profiler::start() {
  if (running_) return;
  if (g_state.frames != frames_.data()) {
    if (g_state.frames != nullptr) {
      throw std::logic_error("profiler: another Profiler owns the sampler");
    }
    g_state.frames = frames_.data();
    g_state.depths = depths_.data();
    g_state.capacity = depths_.size();
    g_state.count = 0;
    g_state.dropped = 0;
  }
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("profiler: sigaction failed");
  }
  struct sigevent sev {};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  timer_t timer{};
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
    throw std::runtime_error("profiler: timer_create failed");
  }
  timer_ = timer;
  struct itimerspec spec {};
  const auto ns = std::chrono::nanoseconds(kInterval).count();
  spec.it_interval.tv_sec = static_cast<time_t>(ns / 1000000000);
  spec.it_interval.tv_nsec = static_cast<long>(ns % 1000000000);
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    timer_delete(timer);
    throw std::runtime_error("profiler: timer_settime failed");
  }
  running_ = true;
}

void Profiler::stop() {
  if (!running_) return;
  timer_delete(static_cast<timer_t>(timer_));
  timer_ = nullptr;
  running_ = false;
}

std::int64_t Profiler::samples() const {
  return g_state.frames == frames_.data()
             ? static_cast<std::int64_t>(g_state.count)
             : 0;
}

std::int64_t Profiler::dropped() const {
  return g_state.frames == frames_.data() ? g_state.dropped : 0;
}

Profiler::Attribution Profiler::attribute() const {
  Attribution out;
  const std::size_t count = static_cast<std::size_t>(samples());
  if (count == 0) return out;

  // Only frames inside this executable carry evolve code; map each to
  // its file-relative address. Return addresses step back one byte so
  // they resolve to the call instruction, not the one after it.
  Dl_info self{};
  if (dladdr(reinterpret_cast<void*>(&layer_of), &self) == 0) {
    throw std::runtime_error("profiler: dladdr failed on own symbol");
  }
  const auto base = reinterpret_cast<std::uintptr_t>(self.dli_fbase);
  auto lookup_addr = [&](std::size_t sample, int frame) -> std::uintptr_t {
    const auto a =
        reinterpret_cast<std::uintptr_t>(frames_[sample * kDepth + frame]);
    return frame == 0 ? a : a - 1;
  };
  // Per address: the layer and function of its innermost inline frame
  // that has a layer; layer "" = none, "-" = outside the executable.
  struct Resolved {
    std::string layer;
    std::string function;
  };
  std::unordered_map<std::uintptr_t, Resolved> layer_by_addr;
  for (std::size_t s = 0; s < count; ++s) {
    for (int f = 0; f < depths_[s]; ++f) {
      const std::uintptr_t a = lookup_addr(s, f);
      if (layer_by_addr.count(a)) continue;
      Dl_info info{};
      const bool in_exe =
          dladdr(reinterpret_cast<void*>(a), &info) != 0 &&
          info.dli_fbase == self.dli_fbase;
      layer_by_addr.emplace(a, Resolved{in_exe ? "" : "-", ""});
    }
  }

  const std::string exe = self_exe_path();
  const std::string list = exe + ".addrs." + std::to_string(getpid());
  std::vector<std::uintptr_t> queried;
  {
    std::ofstream f(list);
    for (const auto& [a, resolved] : layer_by_addr) {
      if (!resolved.layer.empty()) continue;  // outside the executable
      queried.push_back(a);
      f << std::hex << "0x" << (a - base) << "\n";
    }
  }
  const std::string cmd =
      "addr2line -a -f -C -i -e '" + exe + "' < '" + list + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::remove(list.c_str());
    throw std::runtime_error("profiler: cannot run addr2line");
  }
  // Output: per address a "0x..." line, then (function, file:line)
  // pairs innermost inline frame first.
  std::size_t record = 0;
  bool have_record = false;
  bool expect_function = true;
  Resolved resolved;
  char line[8192];
  auto flush = [&] {
    if (have_record && record <= queried.size()) {
      layer_by_addr[queried[record - 1]] = resolved;
    }
  };
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::string_view text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.remove_suffix(1);
    }
    if (text.starts_with("0x")) {
      flush();
      ++record;
      have_record = true;
      expect_function = true;
      resolved = Resolved{};
      continue;
    }
    if (expect_function && resolved.layer.empty()) {
      resolved.layer = layer_of(text);
      if (!resolved.layer.empty()) resolved.function = std::string(text);
    }
    expect_function = !expect_function;
  }
  flush();
  const int status = pclose(pipe);
  std::remove(list.c_str());
  if (status != 0 || record != queried.size()) {
    throw std::runtime_error("profiler: addr2line failed");
  }

  for (std::size_t s = 0; s < count; ++s) {
    const Resolved* decided = nullptr;
    for (int f = 0; f < depths_[s] && decided == nullptr; ++f) {
      const Resolved& r = layer_by_addr[lookup_addr(s, f)];
      if (!r.layer.empty() && r.layer != "-") decided = &r;
    }
    if (decided == nullptr) {
      out.layers["other"] += 1;
      continue;
    }
    out.layers[decided->layer] += 1;
    out.functions[decided->function] += 1;
  }
  return out;
}

}  // namespace perfbench
