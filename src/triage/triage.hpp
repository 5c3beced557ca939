#ifndef VS2_TRIAGE_TRIAGE_HPP_
#define VS2_TRIAGE_TRIAGE_HPP_

/// \file triage.hpp
/// Microsecond pre-classification in front of the VS2 pipeline
/// (DESIGN.md §16). Every document is routed to one of two lanes before
/// any expensive stage runs:
///
///  * **SKIP** — near-empty/decorative pages: the pipeline returns a
///    root-only layout tree and no extractions immediately.
///  * **FULL** — everything else: the complete VS2 pipeline, bit-identical
///    to a pipeline without triage.
///
/// The classifier itself never mutates anything and records no metrics —
/// callers (core::Vs2, fleet::Router) own their own accounting, so a router
/// classifying in front of an in-process worker does not double count.

#include <cstdint>
#include <string_view>

#include "doc/document.hpp"
#include "triage/features.hpp"

namespace vs2::triage {

/// The processing lane a document is routed to.
enum class Lane : uint8_t {
  kSkip = 0,
  kFull = 1,
};

/// Stable lowercase lane name ("skip" / "full"); wire-visible.
const char* LaneName(Lane lane);

/// How the router decides. `kOff` disables triage entirely (zero overhead,
/// bit-identical pre-triage behavior); `kAuto` classifies; the force modes
/// pin every document to one lane for A/B measurement.
enum class TriageMode : uint8_t {
  kOff = 0,
  kAuto = 1,
  kForceSkip = 2,
  kForceFull = 3,
};

/// Stable mode name ("off" / "auto" / "skip" / "full").
const char* TriageModeName(TriageMode mode);

/// Parses a `--triage=` flag value (the names above). Returns false on
/// unknown text, leaving `*mode` untouched.
bool ParseTriageMode(std::string_view text, TriageMode* mode);

/// Routing thresholds: only near-blank pages route SKIP; the three
/// generators' documents all route FULL (DESIGN.md §16).
struct TriageConfig {
  TriageMode mode = TriageMode::kOff;

  /// Classifier lattice resolution. Coarser than the segmenter's grid: the
  /// classifier needs band statistics, not cut geometry.
  raster::GridScale grid_scale{0.125};

  // --- SKIP gate: near-empty/decorative pages -----------------------------
  size_t skip_max_elements = 2;    ///< at most this many elements …
  double skip_max_occupancy = 0.02;  ///< … or almost nothing rasterized
};

/// The routing decision for one document.
struct TriageDecision {
  Lane lane = Lane::kFull;
  bool forced = false;  ///< true under a force-lane mode
  TriageFeatures features;
};

/// Pure routing rule over precomputed features (kAuto semantics).
Lane RouteFeatures(const TriageFeatures& features, const TriageConfig& config);

/// Computes features and routes `doc` per `config.mode`. Force modes still
/// compute features (they are the debugging/A-B payload) but pin the lane.
/// `kOff` behaves like `kForceFull` — callers normally gate on the mode and
/// never call this when triage is off.
TriageDecision Classify(const doc::Document& doc, const TriageConfig& config);

}  // namespace vs2::triage

#endif  // VS2_TRIAGE_TRIAGE_HPP_
