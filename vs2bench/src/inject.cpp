/// \file inject.cpp
/// Test-only slowdown for the attribution self-test. Linked only into the
/// `vs2bench_inject` binary, with `-Wl,--wrap` on
/// `vs2::core::SelectEntities`: every call from another object file (the
/// pipeline, the benchmark's own replay) lands in the wrapper below, which
/// runs the real function and then, when VS2BENCH_INJECT names its layer
/// (`core.select:0.2`), busy-waits for that fraction of the time the call
/// took. Nothing under src/ changes; binaries built without the wrap are
/// unaffected.

#include <cstdlib>
#include <cstring>
#include <string>

#include "clock.hpp"
#include "core/select.hpp"

namespace {

/// The busy-wait fraction VS2BENCH_INJECT sets for `layer`, else 0.
double InjectFraction(const char* layer) {
  const char* env = std::getenv("VS2BENCH_INJECT");
  if (env == nullptr) return 0.0;
  std::string spec = env;
  size_t colon = spec.find(':');
  if (colon == std::string::npos || spec.compare(0, colon, layer) != 0) {
    return 0.0;
  }
  return std::atof(spec.c_str() + colon + 1);
}

/// Runs `call` and then busy-waits `fraction` of its duration.
template <typename Call>
auto SlowedDown(double fraction, Call&& call) {
  double start = vs2bench::Now();
  auto result = call();
  vs2bench::BusyWait(fraction * (vs2bench::Now() - start));
  return result;
}

}  // namespace

// The mangled name of the public function, with the linker's __real_ /
// __wrap_ prefixes (see CMakeLists.txt).
#define VS2_SELECT \
  _ZN3vs24core14SelectEntitiesERKNS_3doc8DocumentERKNS1_10LayoutTreeERKNS0_11PatternBookERKSt6vectorINS_8datasets10EntitySpecESaISD_EERKNS_5embed9EmbeddingERKNS0_12SelectConfigE
#define VS2_CAT(a, b) VS2_CAT2(a, b)
#define VS2_CAT2(a, b) a##b

extern "C" {

std::vector<vs2::core::Extraction> VS2_CAT(__real_, VS2_SELECT)(
    const vs2::doc::Document& doc, const vs2::doc::LayoutTree& tree,
    const vs2::core::PatternBook& book,
    const std::vector<vs2::datasets::EntitySpec>& specs,
    const vs2::embed::Embedding& embedding,
    const vs2::core::SelectConfig& config);

std::vector<vs2::core::Extraction> VS2_CAT(__wrap_, VS2_SELECT)(
    const vs2::doc::Document& doc, const vs2::doc::LayoutTree& tree,
    const vs2::core::PatternBook& book,
    const std::vector<vs2::datasets::EntitySpec>& specs,
    const vs2::embed::Embedding& embedding,
    const vs2::core::SelectConfig& config) {
  static const double fraction = InjectFraction("core.select");
  return SlowedDown(fraction, [&] {
    return VS2_CAT(__real_, VS2_SELECT)(doc, tree, book, specs, embedding,
                                        config);
  });
}

}  // extern "C"
