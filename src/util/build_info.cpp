#include "util/build_info.h"

#include <sstream>

#include "core/parallel.h"
#include "util/cpuinfo.h"
#include "util/jsonlite.h"

#ifndef T2C_GIT_SHA
#define T2C_GIT_SHA "unknown"
#endif
#ifndef T2C_CXX_FLAGS
#define T2C_CXX_FLAGS ""
#endif

namespace t2c {

namespace {

std::string detect_compiler() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

BuildInfo build_info() {
  // ISA/model probes live in util::cpuinfo (shared with the solver
  // registry); only the pool size is re-read per call.
  static const std::string compiler = detect_compiler();
  BuildInfo b;
  b.git_sha = T2C_GIT_SHA;
  b.compiler = compiler;
  b.flags = T2C_CXX_FLAGS;
  b.isa = util::isa_description();
  b.cpu_model = util::cpu_model_name();
  b.threads = par::max_threads();
  return b;
}

std::string build_info_json() {
  using jsonlite::json_escape;
  const BuildInfo b = build_info();
  std::ostringstream os;
  os << "{\"git_sha\":\"" << json_escape(b.git_sha) << "\",\"compiler\":\""
     << json_escape(b.compiler) << "\",\"flags\":\"" << json_escape(b.flags)
     << "\",\"isa\":\"" << json_escape(b.isa) << "\",\"cpu_model\":\""
     << json_escape(b.cpu_model) << "\",\"threads\":" << b.threads << '}';
  return os.str();
}

}  // namespace t2c
