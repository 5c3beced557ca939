/// Tests for src/nlp: tokenizer, stemmer, lexicon, analyzer (POS/NER/
/// TIMEX/geocode/senses), chunker, patterns (with the prepared descriptor
/// matcher checked against a full-Levenshtein reference), Lesk, chunk
/// trees.

#include <gtest/gtest.h>

#include <tuple>

#include "core/pattern_learner.hpp"
#include "datasets/generator.hpp"
#include "datasets/holdout.hpp"
#include "nlp/analyzer.hpp"
#include "nlp/chunk_tree.hpp"
#include "nlp/lesk.hpp"
#include "nlp/lexicon.hpp"
#include "nlp/pattern.hpp"
#include "nlp/stemmer.hpp"
#include "nlp/tokenizer.hpp"
#include "ocr/ocr.hpp"
#include "util/strings.hpp"

namespace vs2::nlp {
namespace {

// --------------------------------------------------------------- Stemmer --

struct StemCase {
  const char* word;
  const char* stem;
};

// Printed by its word. gtest's fallback prints the struct's bytes, i.e. the
// two string pointers, and test discovery puts the printed parameter into
// the test name, which then changed with every build's load address.
void PrintTo(const StemCase& c, std::ostream* os) { *os << c.word; }

class PorterStemTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemTest, StemsKnownWord) {
  EXPECT_EQ(PorterStem(GetParam().word), GetParam().stem);
}

INSTANTIATE_TEST_SUITE_P(
    ClassicVocabulary, PorterStemTest,
    ::testing::Values(StemCase{"caresses", "caress"},
                      StemCase{"ponies", "poni"}, StemCase{"cats", "cat"},
                      StemCase{"feed", "feed"}, StemCase{"agreed", "agre"},
                      StemCase{"plastered", "plaster"},
                      StemCase{"motoring", "motor"}, StemCase{"sing", "sing"},
                      StemCase{"conflated", "conflat"},
                      StemCase{"troubled", "troubl"},
                      StemCase{"sized", "size"}, StemCase{"hopping", "hop"},
                      StemCase{"happy", "happi"},
                      StemCase{"relational", "relat"},
                      StemCase{"conditional", "condit"},
                      StemCase{"vietnamization", "vietnam"},
                      StemCase{"organizer", "organ"},
                      StemCase{"hopefulness", "hope"},
                      StemCase{"formality", "formal"},
                      StemCase{"triplicate", "triplic"},
                      StemCase{"probate", "probat"},
                      StemCase{"controller", "control"}));

TEST(PorterStemTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("at"), "at");
  EXPECT_EQ(PorterStem("by"), "by");
}

TEST(PorterStemTest, StemIsIdempotentForCommonWords) {
  for (const char* w : {"festival", "hosted", "property", "listing",
                        "organized", "welcome"}) {
    std::string once = PorterStem(w);
    EXPECT_EQ(PorterStem(once), once) << w;
  }
}

// ------------------------------------------------------------- Tokenizer --

TEST(TokenizerTest, DetachesPunctuation) {
  auto toks = Tokenize("Hello, world!");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "Hello");
  EXPECT_EQ(toks[1], ",");
  EXPECT_EQ(toks[2], "world");
  EXPECT_EQ(toks[3], "!");
}

TEST(TokenizerTest, KeepsEmailsIntact) {
  auto toks = Tokenize("mail me at j.smith@example.com.");
  EXPECT_EQ(toks[3], "j.smith@example.com");
}

TEST(TokenizerTest, KeepsPhonesIntact) {
  auto toks = Tokenize("call (614) 555-0134 now");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[1], "(614)");
  EXPECT_EQ(toks[2], "555-0134");
}

TEST(TokenizerTest, KeepsTimesAndMoney) {
  auto toks = Tokenize("7:30 PM for $1,250.");
  EXPECT_EQ(toks[0], "7:30");
  EXPECT_EQ(toks[3], "$1,250");
}

TEST(TokenizerTest, SplitsWordSlashes) {
  auto toks = Tokenize("food/drinks served");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "food");
  EXPECT_EQ(toks[1], "/");
  EXPECT_EQ(toks[2], "drinks");
}

TEST(TokenizerTest, KeepsDateSlashesIntact) {
  auto toks = Tokenize("on 04/12/2025 we");
  EXPECT_EQ(toks[1], "04/12/2025");
}

TEST(TokenizerShapeTest, NumericShapes) {
  EXPECT_TRUE(LooksNumeric("1,250"));
  EXPECT_TRUE(LooksNumeric("3.5"));
  EXPECT_TRUE(LooksNumeric("2nd"));
  EXPECT_FALSE(LooksNumeric("abc"));
  EXPECT_FALSE(LooksNumeric(""));
}

TEST(TokenizerShapeTest, ClockTimes) {
  EXPECT_TRUE(LooksLikeClockTime("7:30"));
  EXPECT_TRUE(LooksLikeClockTime("19:05"));
  EXPECT_TRUE(LooksLikeClockTime("7pm"));
  EXPECT_FALSE(LooksLikeClockTime("25:00"));
  EXPECT_FALSE(LooksLikeClockTime("7:3"));
  EXPECT_FALSE(LooksLikeClockTime("word"));
}

TEST(TokenizerShapeTest, ZipCodes) {
  EXPECT_TRUE(LooksLikeZipCode("43210"));
  EXPECT_TRUE(LooksLikeZipCode("43210-1101"));
  EXPECT_FALSE(LooksLikeZipCode("4321"));
  EXPECT_FALSE(LooksLikeZipCode("4321a"));
}

TEST(TokenizerShapeTest, Money) {
  EXPECT_TRUE(LooksLikeMoney("$1,250"));
  EXPECT_TRUE(LooksLikeMoney("$950000"));
  EXPECT_FALSE(LooksLikeMoney("1250"));
  EXPECT_FALSE(LooksLikeMoney("$"));
}

// --------------------------------------------------------------- Lexicon --

TEST(LexiconTest, GazetteersAnswer) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_TRUE(lex.IsFirstName("james"));
  EXPECT_TRUE(lex.IsLastName("nguyen"));
  EXPECT_TRUE(lex.IsOrganizationWord("university"));
  EXPECT_TRUE(lex.IsOrganizationSuffix("llc"));
  EXPECT_TRUE(lex.IsCity("columbus"));
  EXPECT_TRUE(lex.IsStateAbbrev("OH"));
  EXPECT_TRUE(lex.IsStreetSuffix("boulevard"));
  EXPECT_TRUE(lex.IsMonth("april"));
  EXPECT_TRUE(lex.IsWeekday("saturday"));
  EXPECT_FALSE(lex.IsFirstName("xyzzy"));
}

TEST(LexiconTest, VerbSensesIncludePaperClasses) {
  const Lexicon& lex = Lexicon::Get();
  auto& hosted = lex.VerbSenses("hosted");
  EXPECT_NE(std::find(hosted.begin(), hosted.end(), "captain"), hosted.end());
  auto& featuring = lex.VerbSenses("featuring");
  EXPECT_NE(std::find(featuring.begin(), featuring.end(),
                      "reflexive_appearance"),
            featuring.end());
  auto& created = lex.VerbSenses("created");
  EXPECT_NE(std::find(created.begin(), created.end(), "create"),
            created.end());
}

TEST(LexiconTest, HypernymsIncludePaperSenses) {
  const Lexicon& lex = Lexicon::Get();
  auto& acres = lex.Hypernyms("acres");
  EXPECT_NE(std::find(acres.begin(), acres.end(), "measure"), acres.end());
  auto& house = lex.Hypernyms("house");
  EXPECT_NE(std::find(house.begin(), house.end(), "estate"), house.end());
  EXPECT_TRUE(lex.Hypernyms("xyzzy").empty());
}

// ---------------------------------------------------------------- Analyze --

TEST(AnalyzerTest, PosTagsBasicSentence) {
  AnalyzedText t = Analyze("The annual festival welcomes 500 guests");
  ASSERT_EQ(t.tokens.size(), 6u);
  EXPECT_EQ(t.tokens[0].pos, Pos::kDeterminer);
  EXPECT_EQ(t.tokens[1].pos, Pos::kAdjective);
  EXPECT_EQ(t.tokens[2].pos, Pos::kNoun);
  EXPECT_EQ(t.tokens[4].pos, Pos::kCardinal);
}

TEST(AnalyzerTest, NerPersonFromGazetteer) {
  AnalyzedText t = Analyze("Hosted by Daniel Nguyen tonight");
  bool person = false;
  for (const Token& tok : t.tokens) {
    person = person || tok.ner == NerClass::kPerson;
  }
  EXPECT_TRUE(person);
}

TEST(AnalyzerTest, NerOrganization) {
  AnalyzedText t = Analyze("Presented by the Columbus Jazz Society");
  int org_tokens = 0;
  for (const Token& tok : t.tokens) {
    org_tokens += tok.ner == NerClass::kOrganization ? 1 : 0;
  }
  EXPECT_GE(org_tokens, 2);  // the span pulls in preceding capitalized words
}

TEST(AnalyzerTest, TimexTagsFullDatePhrase) {
  AnalyzedText t = Analyze("Saturday, April 12 at 7:30 PM");
  size_t timex = 0;
  for (const Token& tok : t.tokens) timex += tok.is_timex ? 1 : 0;
  EXPECT_GE(timex, 6u);  // everything including the glue
}

TEST(AnalyzerTest, TimexFuzzyMonthSurvivesOcr) {
  AnalyzedText t = Analyze("Wednesday, Tanuary 10 at 6 PM");
  size_t timex = 0;
  for (const Token& tok : t.tokens) timex += tok.is_timex ? 1 : 0;
  EXPECT_GE(timex, 5u);
}

TEST(AnalyzerTest, GeocodeTagsAddressRun) {
  AnalyzedText t = Analyze("visit 1420 Oak Street Columbus OH 43210 today");
  std::vector<bool> geo;
  for (const Token& tok : t.tokens) geo.push_back(tok.has_geocode);
  // "1420 Oak Street", "Columbus", "OH", "43210" carry geocodes.
  int count = 0;
  for (bool g : geo) count += g ? 1 : 0;
  EXPECT_GE(count, 6);
  EXPECT_FALSE(t.tokens.front().has_geocode);  // "visit"
  EXPECT_FALSE(t.tokens.back().has_geocode);   // "today"
}

TEST(AnalyzerTest, VerbSensesAttached) {
  AnalyzedText t = Analyze("The show is hosted by the club");
  bool captain = false;
  for (const Token& tok : t.tokens) {
    captain = captain || tok.HasVerbSense("captain");
  }
  EXPECT_TRUE(captain);
}

TEST(AnalyzerTest, FuzzyVerbSenseSurvivesOcr) {
  AnalyzedText t = Analyze("Orqanized by the club");
  bool captain = false;
  for (const Token& tok : t.tokens) {
    captain = captain || tok.HasVerbSense("captain");
  }
  EXPECT_TRUE(captain);
}

TEST(AnalyzerTest, ChunksNounAndVerbPhrases) {
  AnalyzedText t = Analyze("The big festival welcomes many families");
  bool np = false, vp = false;
  for (const Chunk& c : t.chunks) {
    np = np || c.kind == ChunkKind::kNounPhrase;
    vp = vp || c.kind == ChunkKind::kVerbPhrase;
  }
  EXPECT_TRUE(np);
  EXPECT_TRUE(vp);
}

TEST(AnalyzerTest, SvoDetected) {
  AnalyzedText t = Analyze("The society hosts the annual gala");
  bool svo = false;
  for (const Chunk& c : t.chunks) svo = svo || c.kind == ChunkKind::kSvo;
  EXPECT_TRUE(svo);
}

TEST(AnalyzerTest, ElementIndicesPropagate) {
  AnalyzedText t = Analyze("alpha beta", {10, 20});
  ASSERT_EQ(t.tokens.size(), 2u);
  EXPECT_EQ(t.tokens[0].element_index, 10u);
  EXPECT_EQ(t.tokens[1].element_index, 20u);
}

TEST(AnalyzerTest, StopwordsMarked) {
  AnalyzedText t = Analyze("the festival");
  EXPECT_TRUE(t.tokens[0].is_stopword);
  EXPECT_FALSE(t.tokens[1].is_stopword);
}

// --------------------------------------------------------------- Pattern --

TEST(PatternShapeTest, PhoneShapes) {
  EXPECT_TRUE(MatchesPhoneShape("(614) 555-0134"));
  EXPECT_TRUE(MatchesPhoneShape("614-555-0134"));
  EXPECT_TRUE(MatchesPhoneShape("614.555.0134"));
  EXPECT_TRUE(MatchesPhoneShape("6145550134"));
  EXPECT_FALSE(MatchesPhoneShape("555-013"));
  EXPECT_FALSE(MatchesPhoneShape("hello"));
  EXPECT_FALSE(MatchesPhoneShape("12345"));
}

TEST(PatternShapeTest, EmailShapes) {
  EXPECT_TRUE(MatchesEmailShape("a.b@example.com"));
  EXPECT_TRUE(MatchesEmailShape("agent+1@realty-pro.net"));
  EXPECT_FALSE(MatchesEmailShape("no-at-sign.com"));
  EXPECT_FALSE(MatchesEmailShape("@nolocal.com"));
  EXPECT_FALSE(MatchesEmailShape("two@@ats.com"));
  EXPECT_FALSE(MatchesEmailShape("x@tld4"));
}

TEST(PatternMatchTest, TimexPattern) {
  AnalyzedText t = Analyze("Join us Saturday, April 12 at 7:30 PM for fun");
  auto matches = MatchPattern(t, {PatternKind::kNpWithTimex, {}});
  ASSERT_EQ(matches.size(), 1u);
  std::string span = t.SpanText(matches[0].begin, matches[0].end);
  EXPECT_NE(span.find("April"), std::string::npos);
  EXPECT_NE(span.find("7:30"), std::string::npos);
}

TEST(PatternMatchTest, LoneYearIsNotATime) {
  AnalyzedText t = Analyze("Winter Festival 2024 returns");
  auto matches = MatchPattern(t, {PatternKind::kNpWithTimex, {}});
  EXPECT_TRUE(matches.empty());
}

TEST(PatternMatchTest, GeocodePattern) {
  AnalyzedText t = Analyze("located at 1420 Oak Street Columbus OH 43210");
  auto matches = MatchPattern(t, {PatternKind::kNpWithGeocode, {}});
  ASSERT_GE(matches.size(), 1u);
}

TEST(PatternMatchTest, VerbSensePatternIncludesAgent) {
  AnalyzedText t = Analyze("hosted by the Columbus Jazz Society");
  auto matches =
      MatchPattern(t, {PatternKind::kVpWithVerbSense, {"captain"}});
  ASSERT_EQ(matches.size(), 1u);
  std::string span = t.SpanText(matches[0].begin, matches[0].end);
  EXPECT_NE(span.find("Society"), std::string::npos);
}

TEST(PatternMatchTest, NerNgramMatchesNameRun) {
  AnalyzedText t = Analyze("contact Daniel Nguyen for details");
  auto matches =
      MatchPattern(t, {PatternKind::kNerNgram, {"PERSON", "ORG"}});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(t.SpanText(matches[0].begin, matches[0].end), "Daniel Nguyen");
}

TEST(PatternMatchTest, PhonePatternJoinsSplitTokens) {
  AnalyzedText t = Analyze("call (614) 555-0134 today");
  auto matches = MatchPattern(t, {PatternKind::kPhoneRegex, {}});
  ASSERT_GE(matches.size(), 1u);
}

TEST(PatternMatchTest, EmailPattern) {
  AnalyzedText t = Analyze("write to jgreen@example.com please");
  auto matches = MatchPattern(t, {PatternKind::kEmailRegex, {}});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(t.SpanText(matches[0].begin, matches[0].end),
            "jgreen@example.com");
}

TEST(PatternMatchTest, HypernymWithCdRequiresNumber) {
  AnalyzedText with_cd = Analyze("4 beds and 2 baths available");
  AnalyzedText without = Analyze("hardwood floors in every bedroom");
  SyntacticPattern p{PatternKind::kNounWithHypernym,
                     {"measure", "structure_part", "+CD"}};
  EXPECT_FALSE(MatchPattern(with_cd, p).empty());
  EXPECT_TRUE(MatchPattern(without, p).empty());
}

TEST(PatternMatchTest, FieldDescriptorFuzzyMatch) {
  AnalyzedText t = Analyze("7 Wages salaries tips 38291.98");
  SyntacticPattern exact{PatternKind::kFieldDescriptor,
                         {"7 Wages salaries tips"}};
  EXPECT_FALSE(MatchPattern(t, exact).empty());
  AnalyzedText corrupted = Analyze("7 Wages salarjes tips 38291.98");
  EXPECT_FALSE(MatchPattern(corrupted, exact).empty());
  AnalyzedText wrong = Analyze("8 Dividend income 12.00");
  EXPECT_TRUE(MatchPattern(wrong, exact).empty());
}

TEST(PatternMatchTest, ProperNounPhrase) {
  AnalyzedText t = Analyze("Databases Jam");
  auto matches = MatchPattern(t, {PatternKind::kProperNounPhrase, {}});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].end - matches[0].begin, 2u);
}

TEST(PatternMatchTest, MatchAnyDeduplicatesSpans) {
  AnalyzedText t = Analyze("Annual Jazz Festival 2026");
  std::vector<SyntacticPattern> pats = {
      {PatternKind::kNounPhraseModified, {}},
      {PatternKind::kProperNounPhrase, {}}};
  auto matches = MatchAny(t, pats);
  // Overlapping spans from different patterns may coexist, but identical
  // spans are merged.
  for (size_t i = 0; i < matches.size(); ++i) {
    for (size_t j = i + 1; j < matches.size(); ++j) {
      EXPECT_FALSE(matches[i].begin == matches[j].begin &&
                   matches[i].end == matches[j].end);
    }
  }
}

// -------------------------------------------- Prepared descriptor search --

/// Test-side reference for `kFieldDescriptor` matching: the per-call
/// full-matrix Levenshtein scan with first-wins overlap resolution that the
/// prepared, budget-bounded matcher replaced.
std::vector<PatternMatch> ReferenceDescriptorMatches(
    const AnalyzedText& text, const SyntacticPattern& pattern) {
  std::vector<PatternMatch> out;
  if (pattern.args.empty()) return out;
  std::vector<std::string> want =
      util::SplitWhitespace(util::ToLower(pattern.args[0]));
  if (want.empty()) return out;
  const auto& tokens = text.tokens;
  for (size_t i = 0; i + want.size() <= tokens.size(); ++i) {
    bool all = true;
    for (size_t k = 0; k < want.size() && all; ++k) {
      size_t budget = want[k].size() >= 8 ? 2 : (want[k].size() >= 4 ? 1 : 0);
      all = util::Levenshtein(tokens[i + k].lower, want[k]) <= budget;
    }
    if (!all) continue;
    bool overlaps = false;
    for (const PatternMatch& m : out) {
      overlaps = overlaps || (i < m.end && m.begin < i + want.size());
    }
    if (!overlaps) out.push_back({i, i + want.size(), 1.0});
  }
  return out;
}

std::vector<std::tuple<size_t, size_t, double>> Spans(
    const std::vector<PatternMatch>& matches) {
  std::vector<std::tuple<size_t, size_t, double>> out;
  for (const PatternMatch& m : matches) {
    out.push_back({m.begin, m.end, m.score});
  }
  return out;
}

/// `MatchPattern` and `MatchPreparedDescriptor` against the reference;
/// returns the number of reference matches.
size_t ExpectMatchesReference(const AnalyzedText& text,
                              const SyntacticPattern& pattern,
                              const PreparedDescriptor& prep,
                              const std::string& label) {
  std::vector<PatternMatch> reference =
      ReferenceDescriptorMatches(text, pattern);
  EXPECT_EQ(Spans(MatchPattern(text, pattern)), Spans(reference)) << label;
  EXPECT_EQ(Spans(MatchPreparedDescriptor(text, prep)), Spans(reference))
      << label;
  // The length prefilter never rejects a text the matcher accepts.
  if (!reference.empty()) {
    EXPECT_TRUE(DescriptorMayMatch(TokenLengthMask(text), prep)) << label;
  }
  return reference.size();
}

TEST(PreparedDescriptorTest, WithinEditBudgetMatchesLevenshtein) {
  const char* words[] = {"total",    "tota1",   "amount", "amovnt",
                         "due",      "d",       "",       "propertyaddress",
                         "pr0perty", "address", "addres", "organizer"};
  for (const char* a : words) {
    for (const char* b : words) {
      for (size_t budget = 0; budget <= 2; ++budget) {
        EXPECT_EQ(WithinEditBudget(a, b, budget),
                  util::Levenshtein(a, b) <= budget)
            << a << " vs " << b << " budget " << budget;
      }
    }
  }
}

TEST(PreparedDescriptorTest, MatchesIdenticalToGenericMatcher) {
  SyntacticPattern pattern;
  pattern.kind = PatternKind::kFieldDescriptor;
  pattern.args = {"Total Amount Due"};
  PreparedDescriptor prep = PrepareDescriptor(pattern);
  ASSERT_EQ(prep.want.size(), 3u);

  const char* texts[] = {
      "total amount due 1250",
      "Total Amount Due 1250 and total amount due again",
      "subtotal amount due",       // leading token differs beyond budget
      "tota1 amovnt due 99",       // OCR-corrupted within budget
      "nothing relevant here",
      "total amount",              // truncated descriptor
      "due amount total",          // right tokens, wrong order
      "pr0perfy addres 12",        // two edits in an 8-letter token
      "total total total",         // overlapping candidate starts
  };
  for (const char* literal :
       {"Total Amount Due", "Property Address", "total total"}) {
    pattern.args = {literal};
    for (const char* text : texts) {
      ExpectMatchesReference(Analyze(text), pattern,
                             PrepareDescriptor(pattern), text);
    }
  }

  // Every descriptor of the three learned pattern books, as prepared at
  // learn time, over OCR-noised documents of all three datasets: each
  // element's text and the whole page in reading order.
  const doc::DatasetId datasets_all[] = {doc::DatasetId::kD1TaxForms,
                                         doc::DatasetId::kD2EventPosters,
                                         doc::DatasetId::kD3RealEstateFlyers};
  std::vector<std::pair<SyntacticPattern, PreparedDescriptor>> descriptors;
  for (doc::DatasetId dataset : datasets_all) {
    core::PatternBook book =
        core::LearnPatterns(datasets::BuildHoldoutCorpus(dataset, 0x5EED));
    for (const core::LearnedEntityPatterns& learned : book.entities) {
      ASSERT_EQ(learned.descriptors.size(), learned.patterns.size());
      for (size_t i = 0; i < learned.patterns.size(); ++i) {
        EXPECT_EQ(learned.descriptors[i].want,
                  PrepareDescriptor(learned.patterns[i]).want);
        if (learned.patterns[i].kind == PatternKind::kFieldDescriptor) {
          descriptors.push_back({learned.patterns[i], learned.descriptors[i]});
        }
      }
    }
  }
  ASSERT_FALSE(descriptors.empty());
  size_t matched = 0;
  for (doc::DatasetId dataset : datasets_all) {
    datasets::GeneratorConfig gc;
    gc.num_documents = 2;
    gc.seed = 31;
    for (const doc::Document& clean :
         datasets::Generate(dataset, gc).documents) {
      doc::Document observed = ocr::Transcribe(clean, {});
      std::vector<AnalyzedText> blocks = {Analyze(observed.FullText())};
      for (const doc::AtomicElement& el : observed.elements) {
        if (el.is_text()) blocks.push_back(Analyze(el.text));
      }
      for (const auto& [descriptor, prepared] : descriptors) {
        for (const AnalyzedText& block : blocks) {
          matched += ExpectMatchesReference(block, descriptor, prepared,
                                            descriptor.ToString());
        }
      }
    }
  }
  EXPECT_GT(matched, 0u);  // the noised D1 forms do hit their descriptors
}

TEST(PreparedDescriptorTest, NonDescriptorPatternsPrepareEmpty) {
  SyntacticPattern np;
  np.kind = PatternKind::kNounPhraseModified;
  EXPECT_TRUE(PrepareDescriptor(np).want.empty());
  SyntacticPattern empty_descriptor;
  empty_descriptor.kind = PatternKind::kFieldDescriptor;
  EXPECT_TRUE(PrepareDescriptor(empty_descriptor).want.empty());
}

// ------------------------------------------------------------------ Lesk --

TEST(LeskTest, OverlapFavorsGlossContext) {
  double host_ctx =
      LeskOverlap("organizer", "the person arranging the event tonight");
  double empty_ctx = LeskOverlap("organizer", "red green blue");
  EXPECT_GT(host_ctx, empty_ctx);
  EXPECT_DOUBLE_EQ(LeskOverlap("xyzzy", "anything"), 0.0);
}

TEST(LeskTest, SelectPicksHintedContext) {
  std::vector<std::string> contexts = {
      "free parking available downtown",
      "hosted by the jazz society arranging the event",
      "doors open at seven"};
  size_t pick = LeskSelect(contexts, {"organizer", "host"});
  EXPECT_EQ(pick, 1u);
  EXPECT_EQ(LeskSelect({}, {"x"}), 0u);
}

// ------------------------------------------------------------ Chunk tree --

TEST(ChunkTreeTest, TreeStructureHasChunksAndFeatures) {
  AnalyzedText t = Analyze("hosted by the Columbus Jazz Society");
  ParseNode root = BuildChunkTree(t);
  EXPECT_EQ(root.label, "S");
  std::string sexp = ToSExpression(root);
  EXPECT_NE(sexp.find("sense:captain"), std::string::npos);
  EXPECT_NE(sexp.find("ner:ORG"), std::string::npos);
}

TEST(ChunkTreeTest, LexicalIdentityDropped) {
  AnalyzedText t = Analyze("The festival welcomes guests");
  std::string sexp = ToSExpression(BuildChunkTree(t));
  EXPECT_EQ(sexp.find("festival"), std::string::npos);
  EXPECT_NE(sexp.find("NN"), std::string::npos);
}

}  // namespace
}  // namespace vs2::nlp
