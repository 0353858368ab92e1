#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "nn/parameter.h"

namespace lncl::nn {

// Binary parameter snapshot: magic, count, then per parameter name, shape and
// float payload. Used for early-stopping checkpoints (best-on-dev weights)
// and for persisting trained models from examples.
void SaveParams(std::ostream& os, const std::vector<Parameter*>& params);

// Restores values into the given parameters. Names and shapes must match the
// saved snapshot exactly; otherwise, or on a truncated or corrupt file,
// returns false and leaves every parameter unchanged.
bool LoadParams(std::istream& is, const std::vector<Parameter*>& params);

// In-memory snapshot helpers for early stopping.
std::vector<util::Matrix> SnapshotValues(const std::vector<Parameter*>& params);
void RestoreValues(const std::vector<util::Matrix>& snapshot,
                   const std::vector<Parameter*>& params);

}  // namespace lncl::nn

