#include "core/segmenter.hpp"
#include "core/segmenter_reference.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

namespace vs2::core {
namespace {

using doc::AtomicElement;
using doc::Document;
using doc::LayoutTree;
using util::BBox;

double MaxHeight(const Document& doc, const std::vector<size_t>& indices) {
  double h = 1.0;
  for (size_t i : indices) h = std::max(h, doc.elements[i].bbox.height);
  return h;
}

/// Splits `indices` into bands along the chosen delimiters. All selected
/// delimiters of the dominant direction are applied at once; elements are
/// assigned by centroid.
std::vector<std::vector<size_t>> SplitByDelimiters(
    const Document& doc, const std::vector<size_t>& indices,
    const std::vector<SeparatorRun>& runs,
    const std::vector<size_t>& delimiter_ids) {
  // Dominant direction: the one holding the widest selected delimiter.
  bool horizontal = true;
  double widest = -1.0;
  for (size_t id : delimiter_ids) {
    if (runs[id].scaled_width > widest) {
      widest = runs[id].scaled_width;
      horizontal = runs[id].horizontal;
    }
  }
  std::vector<double> midlines;
  for (size_t id : delimiter_ids) {
    if (runs[id].horizontal == horizontal) {
      midlines.push_back(runs[id].mid_units);
    }
  }
  std::sort(midlines.begin(), midlines.end());

  std::vector<std::vector<size_t>> bands(midlines.size() + 1);
  for (size_t i : indices) {
    util::PointF c = doc.elements[i].bbox.Centroid();
    double coord = horizontal ? c.y : c.x;
    size_t band = 0;
    while (band < midlines.size() && coord > midlines[band]) ++band;
    bands[band].push_back(i);
  }
  // Drop empty bands.
  std::vector<std::vector<size_t>> out;
  for (auto& b : bands) {
    if (!b.empty()) out.push_back(std::move(b));
  }
  return out;
}

/// True when the straight segment between the two element centroids crosses
/// a third element's bounding box — the "visually separated by another
/// atomic element" test of the clustering step.
bool VisuallySeparated(const Document& doc, size_t a, size_t b,
                       const std::vector<size_t>& candidates) {
  util::PointF pa = doc.elements[a].bbox.Centroid();
  util::PointF pb = doc.elements[b].bbox.Centroid();
  constexpr int kSamples = 8;
  for (size_t other : candidates) {
    if (other == a || other == b) continue;
    const BBox& box = doc.elements[other].bbox;
    for (int s = 1; s < kSamples; ++s) {
      double t = static_cast<double>(s) / kSamples;
      double x = pa.x + (pb.x - pa.x) * t;
      double y = pa.y + (pb.y - pa.y) * t;
      if (box.Contains(x, y)) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<double> VisualFeatures::ToVector() const {
  return {centroid_x, centroid_y, height, lab_l, lab_a, lab_b,
          angular_distance};
}

VisualFeatures ComputeVisualFeatures(const AtomicElement& element,
                                     const BBox& region,
                                     double max_height_in_region) {
  VisualFeatures f;
  util::PointF c = element.bbox.Centroid();
  double w = std::max(region.width, 1.0);
  double h = std::max(region.height, 1.0);
  f.centroid_x = (c.x - region.x) / w;
  f.centroid_y = (c.y - region.y) / h;
  f.height = element.bbox.height / std::max(max_height_in_region, 1.0);
  f.lab_l = element.color.l / 100.0;
  f.lab_a = element.color.a / 128.0;
  f.lab_b = element.color.b / 128.0;
  double dx = c.x - region.x;
  double dy = c.y - region.y;
  // Four-quadrant angle from the region origin, normalized so the in-region
  // range maps to [0, 1]. OCR bbox jitter can push a centroid left of or
  // above the origin; clamping dx there would fold every such element onto
  // the +y axis and give them one shared, wrong angle.
  f.angular_distance =
      (dx == 0.0 && dy == 0.0) ? 0.0 : std::atan2(dy, dx) / (M_PI / 2.0);
  return f;
}

double VisualDistance(const VisualFeatures& a, const VisualFeatures& b,
                      const AtomicElement& ea, const AtomicElement& eb,
                      const BBox& region) {
  // Weighted Euclidean distance in Table 1 feature space. Position weighs
  // most (proximity is the dominant Gestalt cue); color and height encode
  // typographical similarity; the pairwise sum-of-angular-distances term
  // penalizes mirror-symmetric placements that plain position misses.
  double d = 0.0;
  d += 3.0 * ((a.centroid_x - b.centroid_x) * (a.centroid_x - b.centroid_x) +
              (a.centroid_y - b.centroid_y) * (a.centroid_y - b.centroid_y));
  d += 1.2 * (a.height - b.height) * (a.height - b.height);
  d += 0.6 * ((a.lab_l - b.lab_l) * (a.lab_l - b.lab_l) +
              (a.lab_a - b.lab_a) * (a.lab_a - b.lab_a) +
              (a.lab_b - b.lab_b) * (a.lab_b - b.lab_b));
  d += 0.4 * (a.angular_distance - b.angular_distance) *
       (a.angular_distance - b.angular_distance);
  double sum_ang = util::SumOfAngularDistances(
      ea.bbox, eb.bbox, std::max(region.width, 1.0),
      std::max(region.height, 1.0));
  d += 0.15 * sum_ang * sum_ang / (M_PI * M_PI);
  return std::sqrt(d);
}

void FillFeatureSoA(const Document& doc,
                    const std::vector<size_t>& element_indices,
                    const std::vector<VisualFeatures>& features,
                    const BBox& region, FeatureSoA* soa) {
  const double w = std::max(region.width, 1.0);
  const double h = std::max(region.height, 1.0);
  const size_t n = features.size();
  for (std::vector<double>* column :
       {&soa->centroid_x, &soa->centroid_y, &soa->height, &soa->lab_l,
        &soa->lab_a, &soa->lab_b, &soa->angular, &soa->theta_origin,
        &soa->theta_anti}) {
    column->resize(n);
  }
  for (size_t k = 0; k < n; ++k) {
    const VisualFeatures& f = features[k];
    soa->centroid_x[k] = f.centroid_x;
    soa->centroid_y[k] = f.centroid_y;
    soa->height[k] = f.height;
    soa->lab_l[k] = f.lab_l;
    soa->lab_a[k] = f.lab_a;
    soa->lab_b[k] = f.lab_b;
    soa->angular[k] = f.angular_distance;
    util::PointF c = doc.elements[element_indices[k]].bbox.Centroid();
    soa->theta_origin[k] = std::atan2(c.y, c.x);
    soa->theta_anti[k] = std::atan2(h - c.y, w - c.x);
  }
}

double VisualDistancePair(const FeatureSoA& f, size_t i, size_t j) {
  // The exact operation order of `VisualDistance`: a parenthesized sum for
  // the position and LAB groups, left-to-right `w * diff * diff` for the
  // height and angle terms, and the angular-sum term divided by π² last.
  double d = 0.0;
  double dx = f.centroid_x[i] - f.centroid_x[j];
  double dy = f.centroid_y[i] - f.centroid_y[j];
  d += 3.0 * (dx * dx + dy * dy);
  double dh = f.height[i] - f.height[j];
  d += 1.2 * dh * dh;
  double dl = f.lab_l[i] - f.lab_l[j];
  double da = f.lab_a[i] - f.lab_a[j];
  double db = f.lab_b[i] - f.lab_b[j];
  d += 0.6 * (dl * dl + da * da + db * db);
  double dang = f.angular[i] - f.angular[j];
  d += 0.4 * dang * dang;
  double sum_ang = std::abs(f.theta_origin[i] - f.theta_origin[j]) +
                   std::abs(f.theta_anti[i] - f.theta_anti[j]);
  d += 0.15 * sum_ang * sum_ang / (M_PI * M_PI);
  return std::sqrt(d);
}

namespace {

/// Above this element count the n×n distance matrix is not materialized
/// (32 MB of doubles at the cap) and lookups fall back to on-demand pairs.
constexpr size_t kDistanceMatrixCap = 2048;

}  // namespace

std::vector<std::vector<size_t>> ClusterElements(
    const Document& doc, const std::vector<size_t>& element_indices,
    const util::BBox& region, const SegmenterConfig& config) {
  static obs::Counter& cluster_calls =
      obs::Metrics::GetCounter("segment.cluster_calls");
  static obs::Counter& cluster_iterations =
      obs::Metrics::GetCounter("segment.cluster_iterations");
  std::vector<std::vector<size_t>> clusters;
  if (element_indices.size() <= 1) {
    if (!element_indices.empty()) clusters.push_back(element_indices);
    return clusters;
  }
  cluster_calls.Add(1);

  double max_h = MaxHeight(doc, element_indices);
  std::vector<VisualFeatures> features;
  features.reserve(element_indices.size());
  for (size_t i : element_indices) {
    features.push_back(ComputeVisualFeatures(doc.elements[i], region, max_h));
  }

  // The medoid loops below evaluate Θ(n²) distances per iteration, so the
  // full matrix is computed once up front. Both scratch buffers are
  // per-thread and keep their capacity across steps; no step calls another,
  // so one of each per thread suffices.
  thread_local FeatureSoA soa;
  thread_local std::vector<double> matrix;
  FillFeatureSoA(doc, element_indices, features, region, &soa);
  const size_t n = features.size();
  const bool materialized = n <= kDistanceMatrixCap;
  if (materialized) {
    matrix.resize(n * n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        matrix[i * n + j] = VisualDistancePair(soa, i, j);
      }
    }
  }
  auto dist = [&](size_t fa, size_t fb) {
    return materialized ? matrix[fa * n + fb]
                        : VisualDistancePair(soa, fa, fb);
  };

  // --- seed selection: one medoid per occupied cell of a g×g grid ---
  int g = std::max(config.cluster_grid, 1);
  std::map<int, std::vector<size_t>> cells;  // cell id -> feature indices
  for (size_t fi = 0; fi < features.size(); ++fi) {
    int cx = std::min(g - 1, static_cast<int>(features[fi].centroid_x * g));
    int cy = std::min(g - 1, static_cast<int>(features[fi].centroid_y * g));
    cx = std::max(cx, 0);
    cy = std::max(cy, 0);
    cells[cy * g + cx].push_back(fi);
  }
  std::vector<size_t> seeds;
  for (const auto& [cell, members] : cells) {
    // Medoid: member with minimum average distance to the rest of the cell.
    size_t best = members[0];
    double best_avg = 1e18;
    for (size_t m : members) {
      double acc = 0.0;
      for (size_t other : members) acc += dist(m, other);
      double avg = acc / static_cast<double>(members.size());
      if (avg < best_avg) {
        best_avg = avg;
        best = m;
      }
    }
    seeds.push_back(best);
  }
  if (seeds.size() <= 1) {
    clusters.push_back(element_indices);
    return clusters;
  }

  // --- medoid iteration ---
  std::vector<size_t> assign(features.size(), 0);
  for (int iter = 0; iter < 12; ++iter) {
    cluster_iterations.Add(1);
    bool changed = false;
    for (size_t fi = 0; fi < features.size(); ++fi) {
      size_t best = 0;
      double best_d = 1e18;
      for (size_t s = 0; s < seeds.size(); ++s) {
        double d = dist(fi, seeds[s]);
        if (d < best_d) {
          best_d = d;
          best = s;
        }
      }
      if (assign[fi] != best) {
        assign[fi] = best;
        changed = true;
      }
    }
    // Recompute medoids.
    for (size_t s = 0; s < seeds.size(); ++s) {
      std::vector<size_t> members;
      for (size_t fi = 0; fi < features.size(); ++fi) {
        if (assign[fi] == s) members.push_back(fi);
      }
      if (members.empty()) continue;
      size_t best = members[0];
      double best_acc = 1e18;
      for (size_t m : members) {
        double acc = 0.0;
        for (size_t other : members) acc += dist(m, other);
        if (acc < best_acc) {
          best_acc = acc;
          best = m;
        }
      }
      seeds[s] = best;
    }
    if (!changed) break;
  }

  // --- refinement: split clusters into visually connected components.
  // Two members connect when their boxes are near each other and no third
  // element lies between them (paper: "not visually separated by another
  // atomic element"). ---
  std::vector<double> gaps;
  for (size_t fi = 0; fi < features.size(); ++fi) {
    double nearest = 1e18;
    for (size_t fj = 0; fj < features.size(); ++fj) {
      if (fi == fj) continue;
      nearest = std::min(nearest,
                         util::BoxGap(doc.elements[element_indices[fi]].bbox,
                                      doc.elements[element_indices[fj]].bbox));
    }
    if (nearest < 1e17) gaps.push_back(nearest);
  }
  double gap_limit = std::max(util::Median(gaps) * 2.5, max_h * 1.2);

  std::vector<int> component(features.size(), -1);
  int next_component = 0;
  for (size_t start = 0; start < features.size(); ++start) {
    if (component[start] >= 0) continue;
    std::vector<size_t> stack = {start};
    component[start] = next_component;
    while (!stack.empty()) {
      size_t cur = stack.back();
      stack.pop_back();
      for (size_t other = 0; other < features.size(); ++other) {
        if (component[other] >= 0 || assign[other] != assign[cur]) continue;
        const doc::AtomicElement& ea = doc.elements[element_indices[cur]];
        const doc::AtomicElement& eb = doc.elements[element_indices[other]];
        double gap = util::BoxGap(ea.bbox, eb.bbox);
        if (gap > gap_limit) continue;
        // Axis-aware adjacency: stacked elements connect only at paragraph
        // leading (< 0.7 × element height); side-by-side elements connect
        // at word-gap scale. Keeps grid rows and contact-card lines from
        // bridging vertically while paragraphs stay whole.
        double y_gap = std::max(
            std::max(ea.bbox.y - eb.bbox.bottom(),
                     eb.bbox.y - ea.bbox.bottom()),
            0.0);
        if (y_gap > 0.7 * std::max(ea.bbox.height, eb.bbox.height)) {
          continue;
        }
        // Typography gate: spatially adjacent elements with clearly
        // different font scale or color belong to different logical areas
        // even without intervening whitespace (the implicit-modifier cues
        // — typographical similarity, color distribution — of Sec 1).
        double h_ratio = std::max(ea.bbox.height, eb.bbox.height) /
                         std::max(std::min(ea.bbox.height, eb.bbox.height),
                                  1e-9);
        if (h_ratio > 1.35) continue;
        if (util::DeltaE(ea.color, eb.color) > 25.0) continue;
        if (VisuallySeparated(doc, element_indices[cur],
                              element_indices[other], element_indices)) {
          continue;
        }
        component[other] = next_component;
        stack.push_back(other);
      }
    }
    ++next_component;
  }

  std::map<int, std::vector<size_t>> grouped;
  for (size_t fi = 0; fi < features.size(); ++fi) {
    grouped[component[fi]].push_back(element_indices[fi]);
  }
  for (auto& [cid, members] : grouped) {
    clusters.push_back(std::move(members));
  }

  // --- homogeneity collapse: a visually uniform area (one paragraph) that
  // the grid seeding split apart is re-joined. Two clusters merge when
  // their typography matches (similar heights, similar color) and they are
  // spatially adjacent (boundary gap comparable to intra-cluster gaps). ---
  auto cluster_stats = [&](const std::vector<size_t>& members) {
    double mean_h = 0.0;
    util::Lab mean_color{0, 0, 0};
    util::BBox bounds;
    for (size_t i : members) {
      mean_h += doc.elements[i].bbox.height;
      mean_color.l += doc.elements[i].color.l;
      mean_color.a += doc.elements[i].color.a;
      mean_color.b += doc.elements[i].color.b;
      bounds = util::Union(bounds, doc.elements[i].bbox);
    }
    double n = static_cast<double>(members.size());
    mean_h /= n;
    mean_color.l /= n;
    mean_color.a /= n;
    mean_color.b /= n;
    return std::tuple<double, util::Lab, util::BBox>(mean_h, mean_color,
                                                     bounds);
  };
  bool collapsed = true;
  while (collapsed && clusters.size() > 1) {
    collapsed = false;
    for (size_t a = 0; a < clusters.size() && !collapsed; ++a) {
      for (size_t b = a + 1; b < clusters.size() && !collapsed; ++b) {
        auto [ha, ca, bba] = cluster_stats(clusters[a]);
        auto [hb, cb, bbb] = cluster_stats(clusters[b]);
        double h_ratio = std::max(ha, hb) / std::max(std::min(ha, hb), 1e-9);
        double gap = util::BoxGap(bba, bbb);
        double adjacency = std::max(ha, hb) * 1.6;
        if (h_ratio < 1.25 && util::DeltaE(ca, cb) < 12.0 &&
            gap < adjacency) {
          clusters[a].insert(clusters[a].end(), clusters[b].begin(),
                             clusters[b].end());
          clusters.erase(clusters.begin() + static_cast<long>(b));
          collapsed = true;
        }
      }
    }
  }
  return clusters;
}

namespace {

/// Per-`Segment` memo of normalized `EmbedText` vectors, keyed by layout
/// node id. Embedding a node's text is the dominant cost of the Eq. 1 merge
/// loop, and a node's text never changes once the node exists — merging
/// *replaces* two siblings with a freshly-appended node (the old ids are
/// tombstoned), so a cached vector can never go stale. `Forget` drops the
/// tombstoned ids to keep the map bounded by live nodes.
class NodeEmbedCache {
 public:
  const std::vector<float>& VecFor(const Document& doc, const LayoutTree& tree,
                                   size_t id,
                                   const embed::Embedding& embedding) {
    auto it = cache_.find(id);
    if (it != cache_.end()) return it->second;
    return cache_
        .emplace(id,
                 embedding.EmbedText(doc.TextOf(tree.node(id).element_indices)))
        .first->second;  // unordered_map references stay valid across inserts
  }

  void Forget(size_t id) { cache_.erase(id); }

 private:
  std::unordered_map<size_t, std::vector<float>> cache_;
};

/// Semantic merging pass over the children of `parent` (Eq. 1). Each pass
/// merges the best sibling pair whose semantic similarity clears the
/// depth-scaled threshold θ_h and which is not visually separated (close
/// in space, union swallowing no third sibling). The Eq. 1 semantic
/// contribution — similarity to siblings minus similarity to same-level
/// outsiders (`outside_ids`, computed once per merge loop: merging only
/// replaces children of `parent`, so the outsider set cannot change between
/// passes) — breaks ties between equally similar pairs. Returns true when a
/// merge happened.
bool SemanticMergePass(const Document& doc, LayoutTree* tree, size_t parent,
                       const embed::Embedding& embedding,
                       const SegmenterConfig& config,
                       const std::vector<size_t>& outside_ids,
                       NodeEmbedCache* embed_cache) {
  const auto& children = tree->node(parent).children;
  if (children.size() < 2) return false;

  std::vector<size_t> ids;
  for (size_t id : children) {
    if (tree->node(id).IsLeaf()) ids.push_back(id);
  }
  if (ids.size() < 2) return false;

  std::vector<const std::vector<float>*> vecs;
  std::vector<double> max_heights;
  vecs.reserve(ids.size());
  for (size_t id : ids) {
    vecs.push_back(&embed_cache->VecFor(doc, *tree, id, embedding));
    max_heights.push_back(MaxHeight(doc, tree->node(id).element_indices));
  }

  int h = tree->node(parent).depth + 1;  // depth of the children
  double theta =
      config.theta_min + (config.theta_max - config.theta_min) / 10.0 *
                             static_cast<double>(h);

  // Same-level outsiders for the Eq. 1 negative term; vectors come from the
  // memo, so unchanged outsiders are embedded once per document, not once
  // per pass.
  std::vector<const std::vector<float>*> outside_vecs;
  outside_vecs.reserve(outside_ids.size());
  for (size_t id : outside_ids) {
    outside_vecs.push_back(&embed_cache->VecFor(doc, *tree, id, embedding));
  }
  auto semantic_contribution = [&](size_t i) {
    double sc = 0.0;
    for (size_t j = 0; j < ids.size(); ++j) {
      if (j != i) sc += util::CosineSimilarity(*vecs[i], *vecs[j]);
    }
    for (const auto* ov : outside_vecs) {
      sc -= util::CosineSimilarity(*vecs[i], *ov);
    }
    return sc;
  };

  double best_key = -1e18;
  double best_sim = -1e18;
  size_t best_i = doc::kNoNode, best_j = doc::kNoNode;
  uint64_t rejected_pairs = 0;  // cleared θ_h but failed a visual gate
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      double sim = util::CosineSimilarity(*vecs[i], *vecs[j]);
      // Fragments of one text line merge at a discounted threshold:
      // transcription noise hashes corrupted words away from their clean
      // forms, and demanding full topical similarity would leave exactly
      // the over-segmentation the merge step exists to repair.
      const BBox& bi = tree->node(ids[i]).bbox;
      const BBox& bj = tree->node(ids[j]).bbox;
      double y_overlap = std::min(bi.bottom(), bj.bottom()) -
                         std::max(bi.y, bj.y);
      bool same_line =
          y_overlap > 0.5 * std::min(bi.height, bj.height) &&
          util::BoxGap(bi, bj) <
              1.2 * std::max(max_heights[i], max_heights[j]);
      if (same_line) {
        // The discount only applies to typographically compatible
        // fragments; a styled callout sharing the line keeps full θ.
        double h_ratio = std::max(max_heights[i], max_heights[j]) /
                         std::max(std::min(max_heights[i], max_heights[j]),
                                  1e-9);
        same_line = h_ratio <= 1.3;
      }
      double threshold = same_line ? std::max(theta - 0.3, 0.12) : theta;
      if (sim <= threshold) continue;
      // Visual-separation gates.
      double gap = util::BoxGap(tree->node(ids[i]).bbox,
                                tree->node(ids[j]).bbox);
      double allowed = config.merge_gap_factor *
                       std::max(max_heights[i], max_heights[j]);
      if (gap > allowed) {
        ++rejected_pairs;
        continue;
      }
      BBox merged = util::Union(tree->node(ids[i]).bbox,
                                tree->node(ids[j]).bbox);
      bool swallows = false;
      for (size_t k = 0; k < ids.size() && !swallows; ++k) {
        if (k == i || k == j) continue;
        if (util::Intersect(merged, tree->node(ids[k]).bbox).Area() >
            0.35 * tree->node(ids[k]).bbox.Area()) {
          swallows = true;
        }
      }
      if (swallows) {
        ++rejected_pairs;
        continue;
      }
      double key = sim + 0.05 * (semantic_contribution(i) +
                                 semantic_contribution(j));
      if (key > best_key) {
        best_key = key;
        best_sim = sim;
        best_i = ids[i];
        best_j = ids[j];
      }
    }
  }
  (void)best_sim;
  // Merge quality counters, total and per θ_h depth — the knobs the merge
  // thresholds are tuned against.
  static obs::Counter& rejected_total =
      obs::Metrics::GetCounter("segment.merges_rejected");
  static obs::Counter& accepted_total =
      obs::Metrics::GetCounter("segment.merges_accepted");
  if (rejected_pairs > 0) {
    rejected_total.Add(rejected_pairs);
    obs::Metrics::GetCounter(util::Format("segment.merges_rejected.h%d", h))
        .Add(rejected_pairs);
  }
  if (best_i == doc::kNoNode) return false;
  auto merged = tree->MergeSiblings(doc, best_i, best_j);
  if (merged.ok()) {
    // The merged pair's ids are tombstoned; drop their memoized vectors.
    // The replacement node has a fresh id and is embedded on first use.
    embed_cache->Forget(best_i);
    embed_cache->Forget(best_j);
    accepted_total.Add(1);
    obs::Metrics::GetCounter(util::Format("segment.merges_accepted.h%d", h))
        .Add(1);
  }
  return merged.ok();
}

void SegmentRecursive(const Document& doc, LayoutTree* tree, size_t node_id,
                      const embed::Embedding& embedding,
                      const SegmenterConfig& config,
                      const SegmentReferencePaths& paths,
                      const raster::PageRaster* page,
                      NodeEmbedCache* embed_cache) {
  const doc::LayoutNode& node = tree->node(node_id);
  if (node.depth >= config.max_depth) return;
  if (node.element_indices.size() < config.min_elements_to_split) return;
  if (node.bbox.Area() < config.min_region_area) return;

  // Single-text-line areas with word-scale gaps are atomic: a row of a
  // form, a one-line title. Splitting them can only over-segment.
  {
    bool one_line = true;
    double max_h_line = 1.0;
    double min_top = 1e18, max_bottom = -1e18;
    for (size_t i : node.element_indices) {
      const BBox& b = doc.elements[i].bbox;
      max_h_line = std::max(max_h_line, b.height);
      min_top = std::min(min_top, b.y);
      max_bottom = std::max(max_bottom, b.bottom());
    }
    // Style uniformity is part of atomicity: a single baseline shared by
    // a price tag and a size strip is two areas, not one.
    double min_h_line = 1e18;
    double max_de = 0.0;
    for (size_t i : node.element_indices) {
      min_h_line = std::min(min_h_line, doc.elements[i].bbox.height);
      max_de = std::max(
          max_de, util::DeltaE(doc.elements[i].color,
                               doc.elements[node.element_indices[0]].color));
    }
    bool uniform_style =
        max_h_line / std::max(min_h_line, 1e-9) <= 1.35 && max_de <= 25.0;
    if (uniform_style && max_bottom - min_top < max_h_line * 1.45) {
      // widest horizontal gap between sorted elements
      std::vector<size_t> by_x = node.element_indices;
      std::sort(by_x.begin(), by_x.end(), [&](size_t a, size_t b) {
        return doc.elements[a].bbox.x < doc.elements[b].bbox.x;
      });
      double widest = 0.0;
      double cover = doc.elements[by_x[0]].bbox.right();
      for (size_t k = 1; k < by_x.size(); ++k) {
        const BBox& b = doc.elements[by_x[k]].bbox;
        if (b.x > cover) widest = std::max(widest, b.x - cover);
        cover = std::max(cover, b.right());
      }
      if (one_line && widest < max_h_line * 1.1) return;  // atomic line
    }
  }

  std::vector<size_t> indices = node.element_indices;
  // Copied out: `node` dangles once AddChild below grows the node vector.
  const int depth = node.depth;
  BBox region = depth == 0 ? BBox{0.0, 0.0, doc.width, doc.height}
                           : node.bbox;

  // Phase 1: explicit visual delimiters.
  std::vector<SeparatorRun> runs;
  std::vector<size_t> delimiters;
  {
    VS2_TRACE_SPAN_ARG("segment.delimiters", depth);
    std::vector<util::BBox> boxes;
    boxes.reserve(indices.size());
    for (size_t i : indices) boxes.push_back(doc.elements[i].bbox);
    CutOptions cut_options;
    cut_options.kernel = paths.kernel;
    if (page) {
      cut_options.page = page;
      cut_options.element_ids = &indices;
    }
    runs = FindSeparatorRuns(boxes, region, config.grid_scale, cut_options);
    delimiters = SelectDelimiters(runs, config.delimiter);
    static obs::Counter& cuts_enumerated =
        obs::Metrics::GetCounter("segment.cuts_enumerated");
    static obs::Counter& cuts_kept =
        obs::Metrics::GetCounter("segment.cuts_kept");
    cuts_enumerated.Add(runs.size());
    cuts_kept.Add(delimiters.size());
  }

  std::vector<std::vector<size_t>> parts;
  if (!delimiters.empty()) {
    parts = SplitByDelimiters(doc, indices, runs, delimiters);
  }

  // Phase 2: implicit modifiers via visual clustering.
  if (parts.size() <= 1 && config.enable_visual_clustering) {
    VS2_TRACE_SPAN_ARG("segment.cluster", depth);
    parts = ClusterElements(doc, indices, region, config);
  }
  if (parts.size() <= 1) return;  // leaf: logical block

  for (auto& part : parts) {
    tree->AddChild(doc, node_id, std::move(part));
  }

  // Phase 3: semantic merging among the new siblings, to convergence.
  if (config.enable_semantic_merging) {
    VS2_TRACE_SPAN_ARG("segment.merge", depth);
    // Same-level outsiders, hoisted out of the pass loop: passes only merge
    // children of `node_id` (insiders), so the outsider set is invariant
    // across the whole convergence loop.
    const int child_depth = tree->node(node_id).depth + 1;
    std::vector<size_t> outside_ids;
    for (size_t id = 0; id < tree->size(); ++id) {
      const doc::LayoutNode& n = tree->node(id);
      if (n.depth == child_depth && n.parent != node_id &&
          n.parent != doc::kNoNode) {
        outside_ids.push_back(id);
      }
    }
    int guard = 0;
    while (SemanticMergePass(doc, tree, node_id, embedding, config,
                             outside_ids, embed_cache) &&
           guard++ < 16) {
    }
  }

  // Recurse into the (possibly merged) children.
  std::vector<size_t> children = tree->node(node_id).children;
  for (size_t child : children) {
    SegmentRecursive(doc, tree, child, embedding, config, paths, page,
                     embed_cache);
  }
}

}  // namespace

Result<doc::LayoutTree> Segment(const Document& doc,
                                const embed::Embedding& embedding,
                                const SegmenterConfig& config) {
  return SegmentWithReferencePaths(doc, embedding, config, {});
}

Result<doc::LayoutTree> SegmentWithReferencePaths(
    const Document& doc, const embed::Embedding& embedding,
    const SegmenterConfig& config, const SegmentReferencePaths& paths) {
  if (doc.width <= 0.0 || doc.height <= 0.0) {
    return Status::InvalidArgument("document has no page geometry");
  }
  LayoutTree tree = LayoutTree::ForDocument(doc);
  if (!doc.elements.empty()) {
    // Snap every element box to the page lattice exactly once; the
    // recursion crops per-node sub-grids from this rasterization.
    raster::PageRaster page;
    if (!paths.rasterize_per_node) {
      std::vector<util::BBox> boxes;
      boxes.reserve(doc.elements.size());
      for (const doc::AtomicElement& el : doc.elements) {
        boxes.push_back(el.bbox);
      }
      page = raster::PageRaster(boxes, config.grid_scale);
    }
    NodeEmbedCache embed_cache;
    SegmentRecursive(doc, &tree, tree.root(), embedding, config, paths,
                     paths.rasterize_per_node ? nullptr : &page, &embed_cache);
  }
  VS2_RETURN_IF_ERROR(tree.Validate(doc));
  return tree;
}

}  // namespace vs2::core
