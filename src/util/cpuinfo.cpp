#include "util/cpuinfo.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>

namespace t2c::util {
namespace {

IsaTier probe_hw_tier() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  // All AVX-512 kernels in the repo (int8 micro-kernel, epilogue stores,
  // elementwise requant/LN) need F+DQ+BW+VL together; anything less runs
  // the AVX2 paths. VNNI on top of those is the rung above.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
    return __builtin_cpu_supports("avx512vnni") ? IsaTier::kAvx512Vnni
                                                : IsaTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
#endif
  return IsaTier::kGeneric;
}

std::atomic<int> g_cap{static_cast<int>(kTopIsaTier)};

struct EnvCapInit {
  EnvCapInit() {
    const char* e = std::getenv("T2C_ISA");
    if (e != nullptr) g_cap.store(static_cast<int>(isa_tier_cap_from_name(e)));
  }
};
EnvCapInit g_env_cap_init;

std::string read_cpu_model() {
#if defined(__linux__)
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    auto pos = line.find("model name");
    if (pos == std::string::npos) continue;
    auto colon = line.find(':', pos);
    if (colon == std::string::npos) continue;
    auto start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) continue;
    return line.substr(start);
  }
#endif
  return "unknown";
}

}  // namespace

IsaTier isa_tier_cap_from_name(const std::string& name) {
  if (name == "generic" || name == "sse2" || name == "scalar") {
    return IsaTier::kGeneric;
  }
  if (name == "avx2") return IsaTier::kAvx2;
  if (name == "avx512") return IsaTier::kAvx512;
  return kTopIsaTier;  // "avx512vnni" or unrecognized: no cap
}

IsaTier cpu_isa_tier() {
  static const IsaTier hw = probe_hw_tier();
  int cap = g_cap.load(std::memory_order_relaxed);
  return static_cast<int>(hw) < cap ? hw : static_cast<IsaTier>(cap);
}

void set_isa_tier_cap(IsaTier cap) {
  g_cap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

const char* isa_tier_name(IsaTier tier) {
  switch (tier) {
    case IsaTier::kAvx512Vnni: return "avx512vnni";
    case IsaTier::kAvx512: return "avx512";
    case IsaTier::kAvx2: return "avx2";
    default: return "generic";
  }
}

std::string isa_description() {
#if defined(__x86_64__) || defined(_M_X64)
  switch (cpu_isa_tier()) {
    case IsaTier::kAvx512Vnni: return "x86-64-v4 (avx512vnni)";
    case IsaTier::kAvx512: return "x86-64-v4 (avx512)";
    case IsaTier::kAvx2: return "haswell (avx2)";
    default: return "x86-64 (sse2)";
  }
#elif defined(__aarch64__)
  return "aarch64 (neon)";
#else
  return "default";
#endif
}

const std::string& cpu_model_name() {
  static const std::string model = read_cpu_model();
  return model;
}

}  // namespace t2c::util
