#include "embed/embedding.hpp"

#include <cmath>

#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vs2::embed {

int Vocabulary::Intern(const std::string& word) {
  auto [it, inserted] = ids_.try_emplace(word, static_cast<int>(words_.size()));
  if (inserted) words_.push_back(word);
  return it->second;
}

int Vocabulary::Lookup(const std::string& word) const {
  auto it = ids_.find(word);
  return it == ids_.end() ? -1 : it->second;
}

Embedding::Embedding(int dim) : dim_(dim > 0 ? dim : 64) {}

void Embedding::Normalize(std::vector<float>* v) {
  double norm = 0.0;
  for (float x : *v) norm += static_cast<double>(x) * x;
  if (norm <= 0.0) return;
  double inv = 1.0 / std::sqrt(norm);
  float inv_f = static_cast<float>(inv);
  if (std::isfinite(inv_f)) {
    for (float& x : *v) x *= inv_f;
    return;
  }
  // norm underflowed so far that 1/sqrt(norm) overflows float — the regime
  // of all-subnormal components (the seed-subnormal-width.json fuzz
  // corpus). Scaling in float would turn every component into inf; scaling
  // in double is safe because |x| <= sqrt(norm) implies |x * inv| <= 1.
  for (float& x : *v) x = static_cast<float>(x * inv);
}

std::vector<float> Embedding::HashVector(const std::string& word) const {
  std::vector<float> v(static_cast<size_t>(dim_), 0.0f);
  std::string padded = "^" + util::ToLower(word) + "$";
  if (padded.size() < 3) padded += "$$";
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    uint64_t h = util::Fnv1a64(std::string_view(padded).substr(i, 3));
    size_t slot = h % static_cast<size_t>(dim_);
    float sign = ((h >> 32) & 1) ? 1.0f : -1.0f;
    v[slot] += sign;
  }
  Normalize(&v);
  return v;
}

void Embedding::TrainPpmi(
    const std::vector<std::vector<std::string>>& sentences, int window) {
  vocab_ = Vocabulary();
  vectors_.clear();

  // 1. Count unigrams and windowed co-occurrences.
  std::vector<double> unigram;
  std::unordered_map<uint64_t, double> cooc;  // (w << 32 | c) -> count
  double total_pairs = 0.0;
  auto bump = [&unigram](int id) {
    if (static_cast<size_t>(id) >= unigram.size())
      unigram.resize(static_cast<size_t>(id) + 1, 0.0);
    unigram[static_cast<size_t>(id)] += 1.0;
  };
  for (const auto& sentence : sentences) {
    std::vector<int> ids;
    ids.reserve(sentence.size());
    for (const std::string& w : sentence) {
      int id = vocab_.Intern(util::ToLower(w));
      ids.push_back(id);
      bump(id);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      size_t lo = i >= static_cast<size_t>(window) ? i - window : 0;
      size_t hi = std::min(ids.size(), i + static_cast<size_t>(window) + 1);
      for (size_t j = lo; j < hi; ++j) {
        if (j == i) continue;
        uint64_t key = (static_cast<uint64_t>(ids[i]) << 32) |
                       static_cast<uint32_t>(ids[j]);
        cooc[key] += 1.0;
        total_pairs += 1.0;
      }
    }
  }
  if (total_pairs <= 0.0) return;

  double total_unigrams = 0.0;
  for (double c : unigram) total_unigrams += c;

  // 2. PPMI-weighted random projection: vec(w) += ppmi(w,c) * sign_vec(c).
  vectors_.assign(vocab_.size(),
                  std::vector<float>(static_cast<size_t>(dim_), 0.0f));
  std::vector<std::vector<float>> context_proj(vocab_.size());
  auto projection_of = [&](int c) -> const std::vector<float>& {
    auto& slot = context_proj[static_cast<size_t>(c)];
    if (slot.empty()) {
      slot.resize(static_cast<size_t>(dim_));
      uint64_t h = util::Fnv1a64(vocab_.WordOf(c));
      util::Rng rng(h);
      for (float& x : slot) x = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
    }
    return slot;
  };
  for (const auto& [key, count] : cooc) {
    int w = static_cast<int>(key >> 32);
    int c = static_cast<int>(key & 0xFFFFFFFF);
    double p_wc = count / total_pairs;
    double p_w = unigram[static_cast<size_t>(w)] / total_unigrams;
    double p_c = unigram[static_cast<size_t>(c)] / total_unigrams;
    double pmi = std::log(p_wc / (p_w * p_c));
    if (pmi <= 0.0) continue;
    const std::vector<float>& proj = projection_of(c);
    auto& vec = vectors_[static_cast<size_t>(w)];
    for (int d = 0; d < dim_; ++d) {
      vec[static_cast<size_t>(d)] +=
          static_cast<float>(pmi) * proj[static_cast<size_t>(d)];
    }
  }
  for (auto& vec : vectors_) Normalize(&vec);
}

void Embedding::EmbedInto(const std::string& word,
                          std::vector<float>* out) const {
  std::string lower = util::ToLower(word);
  // Hash component, built in place (same arithmetic as HashVector).
  out->assign(static_cast<size_t>(dim_), 0.0f);
  std::string padded = "^" + lower + "$";
  if (padded.size() < 3) padded += "$$";
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    uint64_t h = util::Fnv1a64(std::string_view(padded).substr(i, 3));
    size_t slot = h % static_cast<size_t>(dim_);
    float sign = ((h >> 32) & 1) ? 1.0f : -1.0f;
    (*out)[slot] += sign;
  }
  Normalize(out);
  int id = vocab_.Lookup(lower);
  if (id < 0 || vectors_[static_cast<size_t>(id)].empty()) return;
  // Blend: 80% topical signal, 20% subword signal, renormalized. The blend
  // keeps misspelled in-vocabulary variants near their clean forms.
  const std::vector<float>& trained = vectors_[static_cast<size_t>(id)];
  for (size_t i = 0; i < out->size(); ++i) {
    (*out)[i] = 0.8f * trained[i] + 0.2f * (*out)[i];
  }
  Normalize(out);
}

std::vector<float> Embedding::Embed(const std::string& word) const {
  std::vector<float> out;
  EmbedInto(word, &out);
  return out;
}

void Embedding::EmbedTextInto(const std::string& text,
                              std::vector<float>* out) const {
  out->assign(static_cast<size_t>(dim_), 0.0f);
  std::vector<std::string> words = util::SplitWhitespace(text);
  if (words.empty()) return;
  std::vector<float> scratch;  // one allocation for the whole text
  for (const std::string& w : words) {
    EmbedInto(w, &scratch);
    for (size_t i = 0; i < out->size(); ++i) (*out)[i] += scratch[i];
  }
  Normalize(out);
}

std::vector<float> Embedding::EmbedText(const std::string& text) const {
  std::vector<float> acc;
  EmbedTextInto(text, &acc);
  return acc;
}

double Embedding::Similarity(const std::string& a,
                             const std::string& b) const {
  return util::CosineSimilarity(Embed(a), Embed(b));
}

double Embedding::TextSimilarity(const std::string& a,
                                 const std::string& b) const {
  return util::CosineSimilarity(EmbedText(a), EmbedText(b));
}

}  // namespace vs2::embed
