#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crowd/annotation.h"
#include "data/dataset.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::inference {

// Interface for stand-alone truth-inference ("label aggregation") methods:
// estimate a posterior over the latent true label of every item from crowd
// labels alone — no instance features. These populate the "Truth Inference"
// rows of the paper's Tables II/III and feed the two-stage baselines.
class TruthInference {
 public:
  virtual ~TruthInference() = default;

  virtual std::string name() const = 0;

  // Returns per-instance (items x K) row-stochastic posterior estimates.
  // `items_per_instance` gives the item count of every instance (1 for
  // classification, sequence length for tagging).
  virtual std::vector<util::Matrix> Infer(
      const crowd::AnnotationSet& annotations,
      const std::vector<int>& items_per_instance, util::Rng* rng) const = 0;
};

using TruthInferencePtr = std::unique_ptr<TruthInference>;

// Item counts of a dataset split, for passing to Infer.
std::vector<int> ItemsPerInstance(const data::Dataset& dataset);

// A flattened view of an annotation set: every item across all instances in
// one array, each with its (annotator, label) pairs. Used by the
// item-independent methods (MV, DS, GLAD, IBCC, PM, CATD).
struct ItemView {
  struct Item {
    std::vector<std::pair<int, int>> labels;  // (annotator, label)
  };
  std::vector<Item> items;
  // items index range [begin[i], begin[i+1]) belongs to instance i.
  std::vector<int> begin;
  int num_annotators = 0;
  int num_classes = 0;
};

ItemView FlattenItems(const crowd::AnnotationSet& annotations,
                      const std::vector<int>& items_per_instance);

// The E-step's normalize-and-delta for one item: turns the log-scores `lp`
// (K) into softmax(lp), written over `q`, and adds |q_new(m) - q_old(m)| to
// `delta` term by term. `lp` is the caller's scratch, reused across items;
// it is left holding the shifted exponentials.
void UpdateItemPosterior(util::Vector* lp, util::Vector* q, double* delta);

// Reassembles flat per-item posteriors into per-instance matrices.
std::vector<util::Matrix> UnflattenPosteriors(
    const ItemView& view, const std::vector<util::Vector>& posterior);

}  // namespace lncl::inference

