#include "triage/triage.hpp"

namespace vs2::triage {

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kSkip: return "skip";
    case Lane::kFull: return "full";
  }
  return "full";
}

const char* TriageModeName(TriageMode mode) {
  switch (mode) {
    case TriageMode::kOff: return "off";
    case TriageMode::kAuto: return "auto";
    case TriageMode::kForceSkip: return "skip";
    case TriageMode::kForceFull: return "full";
  }
  return "off";
}

bool ParseTriageMode(std::string_view text, TriageMode* mode) {
  if (text == "off") {
    *mode = TriageMode::kOff;
  } else if (text == "auto") {
    *mode = TriageMode::kAuto;
  } else if (text == "skip") {
    *mode = TriageMode::kForceSkip;
  } else if (text == "full") {
    *mode = TriageMode::kForceFull;
  } else {
    return false;
  }
  return true;
}

Lane RouteFeatures(const TriageFeatures& f, const TriageConfig& c) {
  if (f.element_count <= c.skip_max_elements ||
      f.occupancy <= c.skip_max_occupancy) {
    return Lane::kSkip;
  }
  return Lane::kFull;
}

TriageDecision Classify(const doc::Document& doc, const TriageConfig& config) {
  TriageDecision decision;
  decision.features = ComputeTriageFeatures(doc, config.grid_scale);
  switch (config.mode) {
    case TriageMode::kAuto:
      decision.lane = RouteFeatures(decision.features, config);
      break;
    case TriageMode::kForceSkip:
      decision.lane = Lane::kSkip;
      decision.forced = true;
      break;
    case TriageMode::kOff:
    case TriageMode::kForceFull:
      decision.lane = Lane::kFull;
      decision.forced = config.mode == TriageMode::kForceFull;
      break;
  }
  return decision;
}

}  // namespace vs2::triage
