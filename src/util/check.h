// Error-handling helpers for Torch2Chip-CPP.
//
// Library code reports contract violations by throwing t2c::Error. We use
// functions (not macros) per the C++ Core Guidelines; the call site passes
// its own context string. The `const char*` overloads keep the success path
// free of std::string construction: a literal message is only turned into a
// string when the check fails. Checks whose message must be composed
// (std::to_string, concatenation) belong behind `if (!cond) fail(...)`.
#pragma once

#include <stdexcept>
#include <string>

namespace t2c {

/// Exception type thrown on any precondition / invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws t2c::Error with the given message.
[[noreturn]] void fail(const std::string& msg);

/// Throws t2c::Error with `msg` and the offending value appended.
[[noreturn]] void fail_index(const std::string& msg, long long value);

/// Throws t2c::Error(msg) when `cond` is false.
inline void check(bool cond, const char* msg) {
  if (!cond) fail(msg);
}
inline void check(bool cond, const std::string& msg) {
  if (!cond) fail(msg);
}

/// check() variant for index-style arguments; appends the offending value.
inline void check_index(bool cond, const char* msg, long long value) {
  if (!cond) fail_index(msg, value);
}
inline void check_index(bool cond, const std::string& msg, long long value) {
  if (!cond) fail_index(msg, value);
}

}  // namespace t2c
