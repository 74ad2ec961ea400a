// Single source of truth for CPU capability probing (DESIGN.md §3.12).
//
// Every kernel family used to repeat its own __builtin_cpu_supports probes
// (matmul target_clones, the int8 micro-kernel picker, the AVX-512
// epilogue/elementwise gates, build_info). They are deduplicated here into
// one ISA *tier* — the coarse level each kernel call picks its variant
// by — plus the human-readable strings build_info embeds. The solver
// registry does not read it: solvers name strategies, not ISAs.
#pragma once

#include <string>

namespace t2c::util {

/// Coarse x86-64 capability levels, ordered: a kernel compiled for tier T
/// runs on any CPU whose tier is >= T. kAvx512 additionally requires the
/// DQ/BW/VL extensions every AVX-512 kernel in this repo uses, so a single
/// tier check covers micro-kernels and epilogues alike. kAvx512Vnni adds
/// AVX512_VNNI (vpdpwssd), which only the int16 GEMM micro-kernel uses.
enum class IsaTier { kGeneric = 0, kAvx2 = 1, kAvx512 = 2, kAvx512Vnni = 3 };

/// The highest rung: the default cap, i.e. no cap at all.
inline constexpr IsaTier kTopIsaTier = IsaTier::kAvx512Vnni;

/// The tier this process runs kernels at: the hardware probe, capped by
/// set_isa_tier_cap() / the T2C_ISA environment variable
/// ("generic" | "avx2" | "avx512" | "avx512vnni"). The int8 kernels and
/// the vectorized elementwise paths all read this one value.
IsaTier cpu_isa_tier();

/// The cap a T2C_ISA value names: "generic" (or "sse2", "scalar"),
/// "avx2", "avx512"; "avx512vnni" and any unrecognized value are the top
/// rung, i.e. no cap.
IsaTier isa_tier_cap_from_name(const std::string& name);

/// Caps (never raises) the tier cpu_isa_tier() reports — the test hook for
/// exercising the scalar/AVX2 kernel variants on wider machines. Thread-
/// safe; kernels already in flight keep their resolved function pointers.
void set_isa_tier_cap(IsaTier cap);

/// "generic" / "avx2" / "avx512" / "avx512vnni" — the token T2C_ISA
/// accepts.
const char* isa_tier_name(IsaTier tier);

/// The historical build_info string for the current tier (e.g.
/// "x86-64-v4 (avx512)"), kept stable for BENCH baselines and perf diffs.
std::string isa_description();

/// "model name" from /proc/cpuinfo (or "unknown") — feeds build_info, so
/// every measurement names the machine that produced it.
const std::string& cpu_model_name();

}  // namespace t2c::util
