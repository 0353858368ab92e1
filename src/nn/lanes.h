#pragma once

#include <vector>

#include "util/check.h"

namespace lncl::nn {

// Variable-length batches (nn::Gru, nn::Lstm, Conv1d::ForwardPacked): lane b
// owns `lengths[b]` consecutive rows, lanes stored one after another. Returns
// the first row of every lane plus, as the last entry, the row count.
inline std::vector<int> LaneOffsets(const std::vector<int>& lengths) {
  std::vector<int> offsets(lengths.size() + 1, 0);
  for (size_t b = 0; b < lengths.size(); ++b) {
    LNCL_DCHECK(lengths[b] >= 0);
    offsets[b + 1] = offsets[b] + lengths[b];
  }
  return offsets;
}

}  // namespace lncl::nn
