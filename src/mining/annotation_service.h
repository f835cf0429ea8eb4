#ifndef TELEIOS_MINING_ANNOTATION_SERVICE_H_
#define TELEIOS_MINING_ANNOTATION_SERVICE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "mining/annotation.h"
#include "mining/knn.h"

namespace teleios::mining {

/// The service-tier "Automatic/Interactive Semantic Annotation"
/// component (paper §3, Figure 2): automatic annotation seeds the patch
/// concepts via clustering; the interactive loop lets an analyst correct
/// individual patch labels, and every correction is propagated to
/// similar patches through a kNN model trained on the accumulated
/// feedback — the classic relevance-feedback loop of EO image
/// information mining. The observatory publishes a service's
/// annotations through its write path
/// (core::VirtualEarthObservatory::PublishAnnotations).
class AnnotationService {
 public:
  /// Seeds the service with automatic annotations of `patches`
  /// (k-means + rule labelling, as AnnotatePatches).
  Status Annotate(const std::vector<Patch>& patches, int k,
                  uint64_t seed = 7);

  /// Current annotations (indexed like the seeded patches).
  const std::vector<Annotation>& annotations() const { return annotations_; }

  /// Analyst feedback: relabel patch `index` as `concept_iri`. The
  /// correction is recorded with confidence 1 and added to the feedback
  /// training set.
  Status Correct(size_t index, const std::string& concept_iri);

  /// Propagates accumulated corrections: every uncorrected patch whose
  /// k nearest feedback samples agree on a different concept is
  /// relabelled (with confidence `propagated_confidence`). Returns the
  /// number of patches that changed.
  Result<size_t> Propagate(int k = 3, double propagated_confidence = 0.75);

  size_t corrections() const { return feedback_features_.size(); }

 private:
  std::vector<Patch> normalized_;  // z-scored features for similarity
  std::vector<Annotation> annotations_;
  std::vector<bool> corrected_;
  std::vector<std::vector<double>> feedback_features_;
  std::vector<std::string> feedback_labels_;
};

}  // namespace teleios::mining

#endif  // TELEIOS_MINING_ANNOTATION_SERVICE_H_
