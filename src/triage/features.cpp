#include "triage/features.hpp"

#include <vector>

#include "util/strings.hpp"

namespace vs2::triage {

TriageFeatures ComputeTriageFeatures(const doc::Document& doc,
                                     const raster::GridScale& scale) {
  TriageFeatures f;
  f.element_count = doc.elements.size();
  if (doc.elements.empty()) return f;

  std::vector<util::BBox> boxes;
  boxes.reserve(doc.elements.size());
  for (const doc::AtomicElement& el : doc.elements) boxes.push_back(el.bbox);

  // One coarse rasterization of the content window. The margins outside the
  // content bounds are trivially whitespace, so cropping to the content
  // keeps the occupancy about the layout, not the page border.
  raster::OccupancyGrid grid =
      raster::RasterizeBoxes(boxes, doc.ContentBounds(), scale);
  if (grid.width() <= 0 || grid.height() <= 0) return f;
  f.occupancy = grid.OccupancyRatio();
  return f;
}

std::string TriageFeatures::ToJson() const {
  return util::Format("{\"element_count\":%zu,\"occupancy\":%.4f}",
                      element_count, occupancy);
}

}  // namespace vs2::triage
