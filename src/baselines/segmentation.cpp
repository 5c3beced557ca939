#include "baselines/segmentation.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "triage/xycut.hpp"
#include "util/math.hpp"

namespace vs2::baselines {
namespace {

using doc::Document;
using util::BBox;

SegBlock MakeBlock(const Document& doc, std::vector<size_t> indices) {
  SegBlock block;
  block.element_indices = std::move(indices);
  for (size_t i : block.element_indices) {
    block.bbox = util::Union(block.bbox, doc.elements[i].bbox);
  }
  return block;
}

}  // namespace

std::vector<SegBlock> SegmentTextOnly(const Document& doc,
                                      const embed::Embedding& embedding) {
  std::vector<SegBlock> blocks;
  std::vector<size_t> text = doc.TextElementIndices();
  if (text.empty()) return blocks;
  std::vector<size_t> ordered = doc::ReadingOrder(doc, text);

  // The transcription stream arrives with its hOCR line structure (every
  // OCR engine emits lines); the *grouping decision* — whether consecutive
  // lines belong to the same context — is made purely from word
  // embeddings. A line joins the current group when its mean embedding
  // stays similar to the group's running mean; it starts a new group
  // otherwise. No geometry enters the decision.
  constexpr double kJoinSim = 0.55;
  // Recover transcription lines (reading-order y jumps).
  std::vector<std::vector<size_t>> lines;
  double last_y = -1e18;
  for (size_t i : ordered) {
    const util::BBox& b = doc.elements[i].bbox;
    double cy = b.y + b.height / 2.0;
    if (lines.empty() || std::abs(cy - last_y) > b.height * 0.6) {
      lines.push_back({});
    }
    lines.back().push_back(i);
    last_y = cy;
  }
  auto line_vec = [&](const std::vector<size_t>& line) {
    std::string joined;
    for (size_t i : line) {
      if (!joined.empty()) joined.push_back(' ');
      joined += doc.elements[i].text;
    }
    return embedding.EmbedText(joined);
  };
  std::vector<size_t> current;
  std::vector<float> group_vec;
  for (const auto& line : lines) {
    std::vector<float> vec = line_vec(line);
    bool join = !current.empty() &&
                util::CosineSimilarity(group_vec, vec) >= kJoinSim;
    if (!join && !current.empty()) {
      blocks.push_back(MakeBlock(doc, current));
      current.clear();
    }
    current.insert(current.end(), line.begin(), line.end());
    group_vec = current.size() == line.size()
                    ? vec
                    : line_vec(current);  // running mean of the group
  }
  if (!current.empty()) blocks.push_back(MakeBlock(doc, current));
  return blocks;
}

std::vector<SegBlock> SegmentXYCut(const Document& doc) {
  // The recursive splitter lives in triage/xycut; this wrapper only
  // materializes the leaf groups as blocks.
  std::vector<SegBlock> blocks;
  for (std::vector<size_t>& group : triage::XYCutPartition(doc)) {
    blocks.push_back(MakeBlock(doc, std::move(group)));
  }
  return blocks;
}

std::vector<SegBlock> SegmentVoronoi(const Document& doc) {
  std::vector<SegBlock> blocks;
  size_t n = doc.elements.size();
  if (n == 0) return blocks;

  // Adaptive distance threshold from the nearest-neighbor gap statistics
  // (the valley between intra-block and inter-block gap modes), plus an
  // area-ratio constraint: elements of wildly different sizes do not join.
  std::vector<double> nn_gaps;
  for (size_t i = 0; i < n; ++i) {
    double nearest = 1e18;
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      nearest = std::min(
          nearest, util::BoxGap(doc.elements[i].bbox, doc.elements[j].bbox));
    }
    if (nearest < 1e17) nn_gaps.push_back(nearest);
  }
  double td = nn_gaps.empty() ? 10.0 : util::Median(nn_gaps) * 3.0 + 2.0;
  constexpr double kMaxAreaRatio = 9.0;

  std::vector<int> component(n, -1);
  int next = 0;
  for (size_t s = 0; s < n; ++s) {
    if (component[s] >= 0) continue;
    std::vector<size_t> stack{s};
    component[s] = next;
    while (!stack.empty()) {
      size_t cur = stack.back();
      stack.pop_back();
      for (size_t j = 0; j < n; ++j) {
        if (component[j] >= 0) continue;
        double gap = util::BoxGap(doc.elements[cur].bbox,
                                  doc.elements[j].bbox);
        if (gap > td) continue;
        double a1 = std::max(doc.elements[cur].bbox.height, 1.0);
        double a2 = std::max(doc.elements[j].bbox.height, 1.0);
        double ratio = std::max(a1, a2) / std::min(a1, a2);
        if (ratio * ratio > kMaxAreaRatio) continue;
        component[j] = next;
        stack.push_back(j);
      }
    }
    ++next;
  }
  std::vector<std::vector<size_t>> groups(static_cast<size_t>(next));
  for (size_t i = 0; i < n; ++i) {
    groups[static_cast<size_t>(component[i])].push_back(i);
  }
  for (auto& g : groups) blocks.push_back(MakeBlock(doc, std::move(g)));
  return blocks;
}

Result<std::vector<SegBlock>> SegmentVips(const Document& doc) {
  if (doc.format == doc::DocumentFormat::kScannedForm) {
    return Status::NotApplicable(
        "VIPS requires markup; scanned forms cannot be converted to HTML");
  }

  // Conversion: native HTML keeps its hints; other formats derive pseudo-
  // markup from font size, with conversion fidelity degrading alongside
  // capture quality (Gallo et al.'s observation about format operators
  // that convert badly).
  std::vector<int> hints(doc.elements.size(), 0);
  double max_h = 1.0;
  for (const doc::AtomicElement& el : doc.elements) {
    max_h = std::max(max_h, el.bbox.height);
  }
  util::Rng conversion_noise(doc.id ^ 0x11B5ULL);
  // Conversion noise operates per generated line (a malformed format
  // operator corrupts a whole text run, not single glyphs). Native HTML
  // still has DOM boundaries that disagree with visual blocks on a few
  // lines; lossy conversions disagree on many.
  double flip_p = doc.HasMarkup()
                      ? 0.06
                      : 0.25 * (1.0 - doc.capture_quality) + 0.03;
  std::map<int, int> line_flip;  // line id -> forced hint (-1 = none)
  for (size_t i = 0; i < doc.elements.size(); ++i) {
    const doc::AtomicElement& el = doc.elements[i];
    int hint = el.markup_hint;
    if (!doc.HasMarkup()) {
      double rel = el.bbox.height / max_h;
      hint = rel > 0.75 ? 1 : (rel > 0.45 ? 3 : 0);
    }
    auto it = line_flip.find(el.line_id);
    if (it == line_flip.end()) {
      int forced = conversion_noise.Bernoulli(flip_p)
                       ? conversion_noise.UniformInt(0, 3)
                       : -1;
      it = line_flip.emplace(el.line_id, forced).first;
    }
    if (it->second >= 0 && el.line_id >= 0) hint = it->second;
    hints[i] = hint;
  }

  // DOM-ish blocks: start from the line/block structure a rendering engine
  // exposes, then split whenever the dominant markup hint changes between
  // adjacent lines — VIPS's "DOM node + visual separator" rule. Only
  // rectangular whitespace separators are expressible (the limitation VS2
  // overcomes for overlapping blocks).
  std::vector<SegBlock> base = ocr::AnalyzeLayout(doc);
  std::vector<SegBlock> blocks;
  for (const SegBlock& blk : base) {
    // Partition the block's elements into lines by y, then group lines by
    // dominant hint.
    std::vector<size_t> idx = blk.element_indices;
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return doc.elements[a].bbox.y < doc.elements[b].bbox.y;
    });
    auto dominant_hint = [&](size_t i) { return hints[i]; };
    std::vector<size_t> current;
    int current_hint = -1;
    for (size_t i : idx) {
      int h = dominant_hint(i);
      if (!current.empty() && h != current_hint) {
        blocks.push_back(MakeBlock(doc, current));
        current.clear();
      }
      current_hint = h;
      current.push_back(i);
    }
    if (!current.empty()) blocks.push_back(MakeBlock(doc, current));
  }
  return blocks;
}

std::vector<SegBlock> SegmentTesseract(const Document& doc) {
  return ocr::AnalyzeLayout(doc);
}

}  // namespace vs2::baselines
