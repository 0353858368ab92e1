#include "data/io.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/bio.h"
#include "util/logging.h"

namespace lncl::data {

namespace {

// Reverse lookup of a BIO tag name; -1 when unknown.
int TagByName(const std::string& name) {
  for (int label = 0; label < kNumBioLabels; ++label) {
    if (BioLabelName(label) == name) return label;
  }
  return -1;
}

}  // namespace

void SaveConll(std::ostream& os, const Dataset& dataset, const Vocab& vocab) {
  LNCL_CHECK(dataset.sequence);
  for (const Instance& x : dataset.instances) {
    for (size_t t = 0; t < x.tokens.size(); ++t) {
      os << vocab.TokenOf(x.tokens[t]) << "\t"
         << BioLabelName(x.tag_labels[t]) << "\n";
    }
    os << "\n";
  }
}

bool LoadConll(std::istream& is, Vocab* vocab, Dataset* dataset) {
  // Sentences are parsed into `sentences` (token strings + tags) and only
  // reach `vocab` and `dataset` once every line validated.
  struct Sentence {
    std::vector<std::string> tokens;
    std::vector<int> tags;
  };
  std::vector<Sentence> sentences;
  Sentence current;
  std::string line;
  auto flush = [&]() {
    if (!current.tokens.empty()) {
      sentences.push_back(std::move(current));
      current = Sentence();
    }
  };
  while (std::getline(is, line)) {
    if (line.empty()) {
      flush();
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    std::string token = line.substr(0, tab);
    const int tag = TagByName(line.substr(tab + 1));
    if (token.empty() || tag < 0) return false;
    current.tokens.push_back(std::move(token));
    current.tags.push_back(tag);
  }
  flush();
  dataset->sequence = true;
  dataset->num_classes = kNumBioLabels;
  for (Sentence& s : sentences) {
    Instance x;
    for (const std::string& token : s.tokens) {
      x.tokens.push_back(vocab->Add(token));
    }
    x.tag_labels = std::move(s.tags);
    dataset->instances.push_back(std::move(x));
  }
  return true;
}

void SaveSentimentTsv(std::ostream& os, const Dataset& dataset,
                      const Vocab& vocab) {
  for (const Instance& x : dataset.instances) {
    os << x.label << "\t";
    for (size_t t = 0; t < x.tokens.size(); ++t) {
      if (t > 0) os << " ";
      os << vocab.TokenOf(x.tokens[t]);
    }
    os << "\n";
  }
}

bool LoadSentimentTsv(std::istream& is, Vocab* vocab, Dataset* dataset) {
  // Rows are parsed into `rows` (label + token strings) and only reach
  // `vocab` and `dataset` once every line validated.
  std::vector<std::pair<int, std::vector<std::string>>> rows;
  std::string line;
  int max_label = dataset->num_classes - 1;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    const std::string field = line.substr(0, tab);
    int label = -1;
    try {
      size_t used = 0;
      label = std::stoi(field, &used);
      if (used != field.size()) return false;  // trailing junk, e.g. "1x"
    } catch (...) {
      return false;
    }
    if (label < 0) return false;
    max_label = std::max(max_label, label);
    std::istringstream tokens(line.substr(tab + 1));
    std::vector<std::string> words;
    std::string token;
    while (tokens >> token) words.push_back(token);
    if (words.empty()) return false;
    rows.emplace_back(label, std::move(words));
  }
  dataset->sequence = false;
  dataset->num_classes = max_label + 1;
  for (const auto& [label, words] : rows) {
    Instance x;
    x.label = label;
    for (const std::string& word : words) x.tokens.push_back(vocab->Add(word));
    dataset->instances.push_back(std::move(x));
  }
  return true;
}

}  // namespace lncl::data
