// Single source of truth for CPU capability probing (DESIGN.md §3.12).
//
// Every kernel family used to repeat its own __builtin_cpu_supports probes
// (matmul target_clones, the int8 micro-kernel picker, the AVX-512
// epilogue/elementwise gates, build_info). They are deduplicated here into
// one ISA *tier* — the coarse level the solver registry gates on — plus
// the human-readable strings build_info embeds.
#pragma once

#include <string>

namespace t2c::util {

/// Coarse x86-64 capability levels, ordered: a kernel compiled for tier T
/// runs on any CPU whose tier is >= T. kAvx512 additionally requires the
/// DQ/BW/VL extensions every AVX-512 kernel in this repo uses, so a single
/// tier check covers micro-kernels and epilogues alike.
enum class IsaTier { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };

/// The tier this process runs kernels at: the hardware probe, capped by
/// set_isa_tier_cap() / the T2C_ISA environment variable
/// ("generic" | "avx2" | "avx512"). Solver applicability and the
/// vectorized elementwise paths both read this one value.
IsaTier cpu_isa_tier();

/// Caps (never raises) the tier cpu_isa_tier() reports — the test hook for
/// exercising the scalar/AVX2 solver variants on wider machines. Thread-
/// safe; kernels already in flight keep their resolved function pointers.
void set_isa_tier_cap(IsaTier cap);

/// "generic" / "avx2" / "avx512" — the token the solver gate summaries
/// print (--list-solvers).
const char* isa_tier_name(IsaTier tier);

/// The historical build_info string for the current tier (e.g.
/// "x86-64-v4 (avx512)"), kept stable for BENCH baselines and perf diffs.
std::string isa_description();

/// "model name" from /proc/cpuinfo (or "unknown") — feeds build_info, so
/// every measurement names the machine that produced it.
const std::string& cpu_model_name();

}  // namespace t2c::util
