// Crash postmortems (DESIGN.md §3.13).
//
// install_crash_handlers() arms async-signal-safe handlers for
// SIGSEGV/SIGABRT/SIGBUS/SIGFPE (SA_SIGINFO, on a dedicated sigaltstack)
// and enables the flight recorder. On a fatal signal the handler writes a
// postmortem bundle — schema `t2c.postmortem.v1`: reason, build_info
// (prerendered at install time; a handler cannot call build_info_json()),
// the newest flight events across all rings, the active request table,
// lock-free vitals, and a raw backtrace — to
// `<dir>/postmortem.<pid>.<n>.json`, then restores the default
// disposition and re-raises so the process still dies with the correct
// wait status. A process-wide latch guarantees exactly one bundle.
//
// The same writer backs the stall watchdog's fatal escalation
// (crash_escalate_stall, wired to TelemetryHub::set_stall_action by
// t2c_cli --stall-fatal): bundle with reason "stall" — including the
// label of the last completed step — then abort() with handlers disarmed.
//
// Everything on the handler path obeys the async-signal-safety rules laid
// out in flight.h / util/sigsafe.h: static preallocated buffers, no
// malloc, no locks, no stdio. backtrace(3) is pre-warmed at install time
// (its first call may dlopen and allocate); frames are emitted as hex
// addresses because backtrace_symbols() allocates.
#pragma once

#include <cstddef>
#include <string>

namespace t2c::obs {

struct CrashConfig {
  std::string dir;        ///< postmortem output directory (created if absent)
  int max_events = 96;    ///< last-K events in a bundle (<= kFlightCollectMax)
};

/// Arms the handlers and enables the flight recorder. Returns false when
/// the directory cannot be created. Safe to call again to re-point the
/// directory. Normal (allocating) context only.
bool install_crash_handlers(const CrashConfig& cfg);

/// Restores default dispositions (test isolation). The flight recorder
/// stays enabled; flip it separately if needed.
void uninstall_crash_handlers();

/// True between install and uninstall.
bool crash_handlers_installed();

/// Writes a bundle right now from normal or signal context with reason
/// kind "stall" or "manual". Returns the number of bytes written (0 when
/// no directory is configured or the one-bundle latch already fired) and,
/// when `path_out` is given, the bundle's path. Async-signal-safe.
std::size_t write_postmortem(const char* reason_kind, double stall_age_ms,
                             char* path_out, std::size_t path_cap);

/// Stall-watchdog fatal escalation: writes a "stall" bundle and aborts
/// the process with handlers disarmed. Never returns.
[[noreturn]] void crash_escalate_stall(double age_ms);

/// Test hook: forgets the one-bundle latch so a later bundle can be
/// written in the same process.
void crash_reset_latch_for_test();

}  // namespace t2c::obs
