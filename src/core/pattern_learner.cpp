#include "core/pattern_learner.hpp"

#include <algorithm>
#include <set>

#include "check/audit.hpp"
#include "nlp/analyzer.hpp"
#include "nlp/chunk_tree.hpp"
#include "obs/log.hpp"
#include "util/strings.hpp"

namespace vs2::core {
namespace {

using nlp::PatternKind;
using nlp::SyntacticPattern;

mining::FlatTree Flatten(const nlp::ParseNode& node) {
  mining::FlatTree tree;
  struct Frame {
    const nlp::ParseNode* node;
    int parent;
  };
  std::vector<Frame> stack{{&node, -1}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    int id = static_cast<int>(tree.labels.size());
    tree.labels.push_back(f.node->label);
    tree.parents.push_back(f.parent);
    for (auto it = f.node->children.rbegin(); it != f.node->children.rend();
         ++it) {
      stack.push_back({&*it, id});
    }
  }
  return tree;
}

void AddUnique(std::vector<SyntacticPattern>* patterns, SyntacticPattern p) {
  for (const SyntacticPattern& existing : *patterns) {
    if (existing == p) return;
  }
  patterns->push_back(std::move(p));
}

}  // namespace

const LearnedEntityPatterns* PatternBook::Find(
    const std::string& entity) const {
  for (const LearnedEntityPatterns& e : entities) {
    if (e.entity == entity) return &e;
  }
  return nullptr;
}

std::vector<SyntacticPattern> PatternsFromMinedTree(
    const mining::FlatTree& tree) {
  std::vector<SyntacticPattern> out;

  bool has_np = false, has_vp = false, has_cd = false, has_jj = false;
  bool has_timex = false, has_geo = false;
  std::set<std::string> ner_classes, verb_senses, hypernyms;
  for (const std::string& label : tree.labels) {
    if (label == "NP") has_np = true;
    if (label == "VP") has_vp = true;
    if (label == "CD") has_cd = true;
    if (label == "JJ") has_jj = true;
    if (label == "timex") has_timex = true;
    if (label == "geo") has_geo = true;
    if (util::StartsWith(label, "ner:"))
      ner_classes.insert(label.substr(4));
    if (util::StartsWith(label, "sense:"))
      verb_senses.insert(label.substr(6));
    if (util::StartsWith(label, "hyp:")) hypernyms.insert(label.substr(4));
  }

  // Priority of the mapping mirrors pattern specificity (Tables 3/4): tag
  // patterns (geocode, TIMEX, senses, NER) dominate bare phrase shapes.
  if (has_geo) {
    AddUnique(&out, {PatternKind::kNpWithGeocode, {}});
  }
  if (has_timex) {
    AddUnique(&out, {PatternKind::kNpWithTimex, {}});
  }
  if (!verb_senses.empty()) {
    std::vector<std::string> senses(verb_senses.begin(), verb_senses.end());
    AddUnique(&out, {PatternKind::kVpWithVerbSense, senses});
  }
  // Hypernym senses relevant to extraction (the measure/structure/estate
  // axis of Table 4); event-domain hypernyms describe coherence, not
  // entities, so they are not promoted into search patterns.
  {
    std::vector<std::string> interesting;
    for (const std::string& h : hypernyms) {
      if (h == "measure" || h == "structure" || h == "estate" ||
          h == "structure_part" || h == "area_unit") {
        interesting.push_back(h);
      }
    }
    if (!interesting.empty()) {
      if (has_cd) interesting.push_back("+CD");
      AddUnique(&out, {PatternKind::kNounWithHypernym, interesting});
    }
  }
  if (!ner_classes.empty()) {
    bool person_or_org =
        ner_classes.count("PERSON") > 0 || ner_classes.count("ORG") > 0;
    if (person_or_org && verb_senses.empty()) {
      std::vector<std::string> classes;
      if (ner_classes.count("PERSON")) classes.push_back("PERSON");
      if (ner_classes.count("ORG")) classes.push_back("ORG");
      AddUnique(&out, {PatternKind::kNerNgram, classes});
      AddUnique(&out, {PatternKind::kNpWithNer, classes});
    }
  }
  if (out.empty()) {
    // Bare phrase shapes only when nothing tag-specific was mined.
    bool has_nnp = false;
    for (const std::string& label : tree.labels) {
      has_nnp = has_nnp || label == "NNP";
    }
    if (has_np && has_vp) {
      AddUnique(&out, {PatternKind::kSvo, {}});
    }
    if (has_np && (has_cd || has_jj)) {
      AddUnique(&out, {PatternKind::kNounPhraseModified, {}});
    }
    if (has_np && has_nnp) {
      AddUnique(&out, {PatternKind::kProperNounPhrase, {}});
    }
    if (out.empty() && has_vp) {
      AddUnique(&out, {PatternKind::kVerbPhrase, {}});
    }
  }
  return out;
}

PatternBook LearnPatterns(const datasets::HoldoutCorpus& holdout,
                          const LearnerConfig& config) {
  PatternBook book;
  book.dataset = holdout.dataset;

  // Collect entity names preserving first-appearance order.
  std::vector<std::string> entity_names;
  for (const datasets::HoldoutEntry& e : holdout.entries) {
    if (std::find(entity_names.begin(), entity_names.end(), e.entity) ==
        entity_names.end()) {
      entity_names.push_back(e.entity);
    }
  }

  for (const std::string& entity : entity_names) {
    LearnedEntityPatterns learned;
    learned.entity = entity;
    std::vector<const datasets::HoldoutEntry*> entries =
        holdout.EntriesFor(entity);

    if (book.dataset == doc::DatasetId::kD1TaxForms) {
      // Exact string match against the field descriptor (paper Sec 5.2.1).
      if (!entries.empty()) {
        learned.patterns.push_back(
            {nlp::PatternKind::kFieldDescriptor, {entries[0]->text}});
      }
      book.entities.push_back(std::move(learned));
      continue;
    }

    // Shape shortcut the mining cannot see: when a dominant share of the
    // annotated texts are regex-shaped tokens (phones, emails), the learned
    // pattern is the regex itself, mirroring Table 4's regex rows.
    size_t phoneish = 0, emailish = 0;
    for (const auto* e : entries) {
      if (nlp::MatchesPhoneShape(e->text)) ++phoneish;
      if (nlp::MatchesEmailShape(e->text)) ++emailish;
    }
    if (!entries.empty() && phoneish * 2 > entries.size()) {
      learned.patterns.push_back({nlp::PatternKind::kPhoneRegex, {}});
      book.entities.push_back(std::move(learned));
      continue;
    }
    if (!entries.empty() && emailish * 2 > entries.size()) {
      learned.patterns.push_back({nlp::PatternKind::kEmailRegex, {}});
      book.entities.push_back(std::move(learned));
      continue;
    }

    // Frequent-subtree mining over the annotated texts' feature trees.
    std::vector<mining::FlatTree> transactions;
    transactions.reserve(entries.size());
    for (const auto* e : entries) {
      nlp::AnalyzedText analyzed = nlp::Analyze(e->text);
      transactions.push_back(Flatten(nlp::BuildChunkTree(analyzed)));
    }
    mining::MinerConfig miner;
    miner.min_support = std::max<size_t>(
        2, transactions.size() * config.min_support_fraction_percent / 100);
    miner.max_nodes = config.max_pattern_nodes;
    miner.maximal_only = true;
    learned.mined = mining::MineFrequentSubtrees(transactions, miner);

    // Pattern-quality audit (DESIGN.md §12, in the spirit of MetaPAD):
    // every mined pattern must remain embeddable in exactly `support`
    // transaction trees. A violation is a miner bug, fatal in audit mode.
    if (check::AuditsEnabled()) {
      check::AuditReport mined_audit =
          check::AuditMinedPatterns(learned.mined, transactions);
      if (!mined_audit.ok()) {
        VS2_LOG(ERROR) << "mined-pattern audit failed for entity \""
                       << learned.entity << "\":\n" << mined_audit.ToString();
        VS2_CHECK(mined_audit.ok()) << mined_audit.ToString();
      }
    }

    for (const mining::MinedPattern& mp : learned.mined) {
      for (SyntacticPattern& p : PatternsFromMinedTree(mp.tree)) {
        AddUnique(&learned.patterns, std::move(p));
      }
      if (learned.patterns.size() >= 4) break;  // top patterns suffice
    }
    // Consolidate hypernym patterns: one pattern with the union of the
    // mined senses. When any mined evidence pairs the senses with a
    // numeric modifier, the modifier requirement is kept (the stronger,
    // more frequent shape) — partial evidence without CD is subsumed.
    {
      std::vector<std::string> senses;
      bool any = false, with_cd = false;
      for (const SyntacticPattern& p : learned.patterns) {
        if (p.kind != nlp::PatternKind::kNounWithHypernym) continue;
        any = true;
        for (const std::string& a : p.args) {
          if (a == "+CD") {
            with_cd = true;
          } else if (std::find(senses.begin(), senses.end(), a) ==
                     senses.end()) {
            senses.push_back(a);
          }
        }
      }
      if (any) {
        learned.patterns.erase(
            std::remove_if(learned.patterns.begin(), learned.patterns.end(),
                           [](const SyntacticPattern& p) {
                             return p.kind ==
                                    nlp::PatternKind::kNounWithHypernym;
                           }),
            learned.patterns.end());
        if (with_cd) senses.push_back("+CD");
        learned.patterns.push_back(
            {nlp::PatternKind::kNounWithHypernym, senses});
      }
    }
    // When distant supervision surfaced tag-specific patterns (geocode,
    // TIMEX, verb senses, NER, hypernyms), the generic phrase shapes mined
    // from incidental trees are noise — drop them. Entities whose holdout
    // evidence is genuinely generic (titles, descriptions) keep them.
    {
      auto is_specific = [](const SyntacticPattern& p) {
        switch (p.kind) {
          case nlp::PatternKind::kNpWithGeocode:
          case nlp::PatternKind::kNpWithTimex:
          case nlp::PatternKind::kVpWithVerbSense:
          case nlp::PatternKind::kNpWithNer:
          case nlp::PatternKind::kNerNgram:
          case nlp::PatternKind::kPhoneRegex:
          case nlp::PatternKind::kEmailRegex:
          case nlp::PatternKind::kNounWithHypernym:
          case nlp::PatternKind::kFieldDescriptor:
            return true;
          default:
            return false;
        }
      };
      bool any_specific = false;
      for (const SyntacticPattern& p : learned.patterns) {
        any_specific = any_specific || is_specific(p);
      }
      if (any_specific) {
        learned.patterns.erase(
            std::remove_if(learned.patterns.begin(), learned.patterns.end(),
                           [&](const SyntacticPattern& p) {
                             return !is_specific(p);
                           }),
            learned.patterns.end());
      }
    }
    if (learned.patterns.empty()) {
      // Distant supervision found nothing distinctive; fall back to the
      // generic modified-NP shape (weakest Table 3 pattern).
      learned.patterns.push_back({nlp::PatternKind::kNounPhraseModified, {}});
    }
    book.entities.push_back(std::move(learned));
  }
  for (LearnedEntityPatterns& learned : book.entities) {
    for (const SyntacticPattern& p : learned.patterns) {
      learned.descriptors.push_back(nlp::PrepareDescriptor(p));
    }
  }
  return book;
}

}  // namespace vs2::core
