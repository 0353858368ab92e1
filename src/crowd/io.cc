#include "crowd/io.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace lncl::crowd {

namespace {

// Parses one whitespace-separated row of ints; false on any junk token.
bool ParseRow(const std::string& line, std::vector<int>* row) {
  row->clear();
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    try {
      size_t used = 0;
      const int v = std::stoi(token, &used);
      if (used != token.size()) return false;
      row->push_back(v);
    } catch (...) {
      return false;
    }
  }
  return true;
}

// Densifies one instance: cell (item, annotator) = label + 1 or 0.
std::vector<std::vector<int>> Densify(const InstanceAnnotations& inst,
                                      int items, int num_annotators) {
  std::vector<std::vector<int>> grid(
      items, std::vector<int>(num_annotators, 0));
  for (const AnnotatorLabels& e : inst.entries) {
    for (int t = 0; t < items; ++t) {
      grid[t][e.annotator] = e.labels[t] + 1;
    }
  }
  return grid;
}

}  // namespace

void SaveAnswersMatrix(std::ostream& os, const AnnotationSet& annotations) {
  for (int i = 0; i < annotations.num_instances(); ++i) {
    const auto grid =
        Densify(annotations.instance(i), 1, annotations.num_annotators());
    for (int j = 0; j < annotations.num_annotators(); ++j) {
      if (j > 0) os << " ";
      os << grid[0][j];
    }
    os << "\n";
  }
}

bool LoadAnswersMatrix(std::istream& is, int num_classes,
                       AnnotationSet* annotations) {
  std::vector<std::vector<int>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<int> row;
    if (!ParseRow(line, &row) || row.empty()) return false;
    if (!rows.empty() && row.size() != rows.front().size()) return false;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return false;
  const int num_annotators = static_cast<int>(rows.front().size());
  AnnotationSet loaded(static_cast<int>(rows.size()), num_annotators,
                       num_classes);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int j = 0; j < num_annotators; ++j) {
      const int v = rows[i][j];
      if (v < 0 || v > num_classes) return false;
      if (v == 0) continue;
      loaded.instance(static_cast<int>(i)).entries.push_back({j, {v - 1}});
    }
  }
  *annotations = std::move(loaded);  // only a fully validated file commits
  return true;
}

void SaveSequenceAnswers(std::ostream& os, const AnnotationSet& annotations,
                         const std::vector<int>& items_per_instance) {
  for (int i = 0; i < annotations.num_instances(); ++i) {
    const auto grid = Densify(annotations.instance(i), items_per_instance[i],
                              annotations.num_annotators());
    for (const auto& row : grid) {
      for (size_t j = 0; j < row.size(); ++j) {
        if (j > 0) os << " ";
        os << row[j];
      }
      os << "\n";
    }
    os << "\n";
  }
}

bool LoadSequenceAnswers(std::istream& is, int num_classes,
                         AnnotationSet* annotations) {
  std::vector<std::vector<std::vector<int>>> blocks;
  std::vector<std::vector<int>> block;
  std::string line;
  size_t num_cols = 0;
  auto flush = [&]() {
    if (!block.empty()) {
      blocks.push_back(std::move(block));
      block.clear();
    }
  };
  while (std::getline(is, line)) {
    if (line.empty()) {
      flush();
      continue;
    }
    std::vector<int> row;
    if (!ParseRow(line, &row) || row.empty()) return false;
    if (num_cols == 0) num_cols = row.size();
    if (row.size() != num_cols) return false;
    block.push_back(std::move(row));
  }
  flush();
  if (blocks.empty()) return false;

  const int num_annotators = static_cast<int>(num_cols);
  AnnotationSet loaded(static_cast<int>(blocks.size()), num_annotators,
                       num_classes);
  for (size_t i = 0; i < blocks.size(); ++i) {
    const auto& grid = blocks[i];
    for (int j = 0; j < num_annotators; ++j) {
      // An annotator either labels the whole sentence or none of it.
      int nonzero = 0;
      for (const auto& row : grid) nonzero += row[j] != 0;
      if (nonzero == 0) continue;
      if (nonzero != static_cast<int>(grid.size())) return false;
      AnnotatorLabels e;
      e.annotator = j;
      for (const auto& row : grid) {
        if (row[j] < 1 || row[j] > num_classes) return false;
        e.labels.push_back(row[j] - 1);
      }
      loaded.instance(static_cast<int>(i)).entries.push_back(std::move(e));
    }
  }
  *annotations = std::move(loaded);  // only a fully validated file commits
  return true;
}

}  // namespace lncl::crowd
