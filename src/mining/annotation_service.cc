#include "mining/annotation_service.h"

namespace teleios::mining {

Status AnnotationService::Annotate(const std::vector<Patch>& patches, int k,
                                   uint64_t seed) {
  TELEIOS_ASSIGN_OR_RETURN(annotations_, AnnotatePatches(patches, k, seed));
  normalized_ = patches;
  NormalizeFeatures(&normalized_);
  corrected_.assign(patches.size(), false);
  feedback_features_.clear();
  feedback_labels_.clear();
  return Status::OK();
}

Status AnnotationService::Correct(size_t index,
                                  const std::string& concept_iri) {
  if (index >= annotations_.size()) {
    return Status::OutOfRange("no patch with index " +
                              std::to_string(index));
  }
  annotations_[index].concept_iri = concept_iri;
  annotations_[index].confidence = 1.0;
  corrected_[index] = true;
  feedback_features_.push_back(normalized_[index].features);
  feedback_labels_.push_back(concept_iri);
  return Status::OK();
}

Result<size_t> AnnotationService::Propagate(int k,
                                            double propagated_confidence) {
  if (feedback_features_.empty()) {
    return Status::InvalidArgument("no corrections to propagate");
  }
  KnnClassifier knn;
  TELEIOS_RETURN_IF_ERROR(knn.Fit(feedback_features_, feedback_labels_));
  size_t changed = 0;
  for (size_t i = 0; i < annotations_.size(); ++i) {
    if (corrected_[i]) continue;
    TELEIOS_ASSIGN_OR_RETURN(std::string predicted,
                             knn.Predict(normalized_[i].features, k));
    if (predicted != annotations_[i].concept_iri) {
      annotations_[i].concept_iri = predicted;
      annotations_[i].confidence = propagated_confidence;
      ++changed;
    }
  }
  return changed;
}

}  // namespace teleios::mining
