// The observability tier word (DESIGN.md §3.5): every pillar's on/off
// switch is one bit of one relaxed atomic. Hot paths load it once (a plan
// run, a pooled region) and branch on its bits; metrics_enabled() and the
// other per-pillar getters and setters are views of it.
#pragma once

#include <atomic>
#include <cstdint>

namespace t2c::obs {

enum Tier : std::uint32_t {
  kTierFlight = 1u << 0,     ///< black-box flight recorder (flight.h)
  kTierTelemetry = 1u << 1,  ///< live telemetry plane (telemetry.h)
  kTierMetrics = 1u << 2,    ///< metrics registry (metrics.h)
  kTierProfile = 1u << 3,    ///< step profiler (profile.h)
  kTierPmu = 1u << 4,        ///< measured counters (pmu.h)
  kTierTrace = 1u << 5,      ///< Chrome trace recorder (trace.h)
  kTierCapture = 1u << 6,    ///< tensor capture (capture.h)
};

/// The event ring's consumers: producers push one event while either is on.
constexpr std::uint32_t kRingTiers = kTierFlight | kTierTelemetry;
/// The tiers a plan step is recorded under (record_step in profile.h);
/// PMU counters ride on the profile tier.
constexpr std::uint32_t kStepTiers =
    kRingTiers | kTierMetrics | kTierProfile | kTierTrace;

namespace detail {
inline std::atomic<std::uint32_t> g_tiers{0};
}  // namespace detail

inline std::uint32_t tiers() {
  return detail::g_tiers.load(std::memory_order_relaxed);
}
inline bool tier_on(std::uint32_t bits) { return (tiers() & bits) != 0; }
inline void set_tier(std::uint32_t bits, bool on) {
  if (on) {
    detail::g_tiers.fetch_or(bits, std::memory_order_relaxed);
  } else {
    detail::g_tiers.fetch_and(~bits, std::memory_order_relaxed);
  }
}

}  // namespace t2c::obs
