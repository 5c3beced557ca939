#ifndef VS2_CORE_SEGMENTER_REFERENCE_HPP_
#define VS2_CORE_SEGMENTER_REFERENCE_HPP_

/// \file segmenter_reference.hpp
/// Test- and bench-only entry point into VS2-Segment's reference paths
/// (DESIGN.md §11). `core::Segment` always runs the bit-parallel cut kernel
/// on one page rasterization; no `SegmenterConfig` or `Vs2` can select
/// anything else. The differential tests and `bench_micro` reach the
/// scalar banded DP and the per-node rasterization through here, to pin
/// that both stay bit-identical to the production path. Production code
/// does not include this header.

#include "core/cuts.hpp"
#include "core/segmenter.hpp"

namespace vs2::core {

/// Which implementation each reference-checked step uses. The defaults are
/// the production paths.
struct SegmentReferencePaths {
  /// The scalar banded DP (`kScalar`) is the reference for the bit-parallel
  /// wavefront.
  CutKernel kernel = CutKernel::kBitParallel;
  /// Re-rasterize every node's boxes instead of cropping per-node sub-grids
  /// from one page rasterization.
  bool rasterize_per_node = false;
};

/// `Segment` with the given paths. Bit-identical to `Segment` for every
/// combination.
Result<doc::LayoutTree> SegmentWithReferencePaths(
    const doc::Document& doc, const embed::Embedding& embedding,
    const SegmenterConfig& config, const SegmentReferencePaths& paths);

}  // namespace vs2::core

#endif  // VS2_CORE_SEGMENTER_REFERENCE_HPP_
