#ifndef VS2_CORE_PATTERN_LEARNER_HPP_
#define VS2_CORE_PATTERN_LEARNER_HPP_

/// \file pattern_learner.hpp
/// Distant supervision (paper Sec 5.2.1): learns each named entity's
/// lexico-syntactic patterns from the holdout corpus, never from the
/// evaluation documents.
///
/// Pipeline per entity: annotate each holdout text with the full NLP
/// feature stack → build its labelled chunk tree → mine maximal frequent
/// subtrees (TreeMiner substrate) → map the mined feature trees onto the
/// searchable pattern vocabulary of `nlp::SyntacticPattern` (the Tables 3/4
/// pattern language). D1 degenerates to exact field-descriptor matching,
/// exactly as the paper does ("In case of D1, exact string match against
/// the field descriptors … was carried out").

#include <map>
#include <string>
#include <vector>

#include "datasets/holdout.hpp"
#include "mining/subtree_miner.hpp"
#include "nlp/pattern.hpp"

namespace vs2::core {

/// Patterns learned for one entity, with the mined evidence kept for
/// inspection (Tables 3/4 reproduction prints it).
struct LearnedEntityPatterns {
  std::string entity;
  std::vector<nlp::SyntacticPattern> patterns;
  std::vector<mining::MinedPattern> mined;  ///< supporting subtrees
  /// `nlp::PrepareDescriptor` of each pattern, parallel to `patterns`
  /// (empty `want` for non-descriptor kinds). Filled by `LearnPatterns`, so
  /// VS2-Select never re-tokenizes a descriptor per document; a book built
  /// without it still matches the same through `nlp::MatchPattern`.
  std::vector<nlp::PreparedDescriptor> descriptors;
};

/// The full pattern book for a dataset. Plain data, written once by
/// `LearnPatterns` and read-only thereafter (`Find` is a linear scan with
/// no index cache), so a constructed book is safe to share across threads.
struct PatternBook {
  doc::DatasetId dataset;
  std::vector<LearnedEntityPatterns> entities;

  const LearnedEntityPatterns* Find(const std::string& entity) const;
};

/// Knobs for the learner.
struct LearnerConfig {
  size_t min_support_fraction_percent = 30;  ///< of the entity's entries
  size_t max_pattern_nodes = 5;
};

/// Learns the pattern book from a holdout corpus.
PatternBook LearnPatterns(const datasets::HoldoutCorpus& holdout,
                          const LearnerConfig& config = {});

/// \brief Maps one mined feature tree to searchable patterns (exposed for
/// tests). May emit zero patterns when the tree carries no distinctive
/// feature.
std::vector<nlp::SyntacticPattern> PatternsFromMinedTree(
    const mining::FlatTree& tree);

}  // namespace vs2::core

#endif  // VS2_CORE_PATTERN_LEARNER_HPP_
