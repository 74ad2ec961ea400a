#include "util/check.h"

namespace t2c {

void fail(const std::string& msg) { throw Error("t2c: " + msg); }

void fail_index(const std::string& msg, long long value) {
  fail(msg + " (got " + std::to_string(value) + ")");
}

}  // namespace t2c
