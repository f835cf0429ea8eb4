#include <gtest/gtest.h>

#include <set>

#include "core/observatory.h"
#include "eo/scene.h"
#include "mining/annotation.h"
#include "mining/annotation_service.h"
#include "mining/features.h"
#include "mining/kmeans.h"
#include "mining/knn.h"

namespace teleios::mining {
namespace {

eo::Scene TestScene() {
  eo::SceneSpec spec;
  spec.width = 64;
  spec.height = 64;
  spec.seed = 7;
  spec.num_fires = 3;
  auto scene = eo::GenerateScene(spec);
  EXPECT_TRUE(scene.ok());
  return *scene;
}

TEST(FeaturesTest, PatchGridCoversImage) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 8);
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(patches->size(), 64u);  // 8x8 grid of 8x8 patches
  for (const Patch& p : *patches) {
    EXPECT_EQ(p.features.size(), FeatureNames().size());
    EXPECT_EQ(p.size, 8);
    EXPECT_EQ(p.footprint.outer.size(), 4u);
  }
}

TEST(FeaturesTest, RejectsBadPatchSize) {
  eo::Scene scene = TestScene();
  EXPECT_FALSE(CutPatches(scene, 0).ok());
  EXPECT_FALSE(CutPatches(scene, 1000).ok());
}

TEST(FeaturesTest, LandFractionFeatureIsMeaningful) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 8);
  ASSERT_TRUE(patches.ok());
  int land_idx = 10;  // land_frac per FeatureNames()
  bool saw_land = false, saw_sea = false;
  for (const Patch& p : *patches) {
    EXPECT_GE(p.features[land_idx], 0.0);
    EXPECT_LE(p.features[land_idx], 1.0);
    if (p.features[land_idx] > 0.9) saw_land = true;
    if (p.features[land_idx] < 0.1) saw_sea = true;
  }
  EXPECT_TRUE(saw_land);
  EXPECT_TRUE(saw_sea);
}

TEST(FeaturesTest, NormalizationZeroMeanUnitVariance) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 8);
  ASSERT_TRUE(patches.ok());
  FeatureScaling scaling = NormalizeFeatures(&*patches);
  size_t dims = FeatureNames().size();
  ASSERT_EQ(scaling.mean.size(), dims);
  for (size_t d = 0; d < dims; ++d) {
    double sum = 0;
    for (const Patch& p : *patches) sum += p.features[d];
    EXPECT_NEAR(sum / static_cast<double>(patches->size()), 0.0, 1e-9);
  }
  // ApplyScaling projects a raw vector identically.
  std::vector<double> raw(dims, 0.0);
  for (size_t d = 0; d < dims; ++d) raw[d] = scaling.mean[d];
  std::vector<double> scaled = ApplyScaling(raw, scaling);
  for (double v : scaled) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(KMeansTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back({0.0 + i * 0.01, 0.0});
    data.push_back({10.0 + i * 0.01, 10.0});
  }
  auto result = KMeans(data, 2, 50, 3);
  ASSERT_TRUE(result.ok());
  // All even rows (cluster A) share one assignment, odd rows the other.
  int a = result->assignments[0];
  int b = result->assignments[1];
  EXPECT_NE(a, b);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(result->assignments[i], i % 2 == 0 ? a : b);
  }
  EXPECT_LT(result->inertia, 1.0);
}

TEST(KMeansTest, DeterministicUnderSeed) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 50; ++i) {
    data.push_back({static_cast<double>(i % 13), static_cast<double>(i % 7)});
  }
  auto a = KMeans(data, 4, 30, 11);
  auto b = KMeans(data, 4, 30, 11);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
}

TEST(KMeansTest, Validation) {
  EXPECT_FALSE(KMeans({}, 2).ok());
  EXPECT_FALSE(KMeans({{1.0}}, 2).ok());  // k > n
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, 1).ok());  // ragged
}

TEST(KMeansTest, InertiaDecreasesWithK) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 60; ++i) {
    data.push_back({static_cast<double>(i % 10), static_cast<double>(i / 10)});
  }
  auto k2 = KMeans(data, 2, 50, 5);
  auto k6 = KMeans(data, 6, 50, 5);
  ASSERT_TRUE(k2.ok());
  ASSERT_TRUE(k6.ok());
  EXPECT_LT(k6->inertia, k2->inertia);
}

TEST(KnnTest, PredictsNearestLabels) {
  KnnClassifier knn;
  ASSERT_TRUE(knn.Fit({{0, 0}, {0, 1}, {10, 10}, {10, 11}},
                      {"sea", "sea", "fire", "fire"})
                  .ok());
  EXPECT_EQ(*knn.Predict({0.2, 0.3}, 3), "sea");
  EXPECT_EQ(*knn.Predict({9.8, 10.4}, 3), "fire");
  auto score = knn.Score({{0, 0}, {10, 10}}, {"sea", "fire"}, 1);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(*score, 1.0);
}

TEST(KnnTest, Validation) {
  KnnClassifier knn;
  EXPECT_FALSE(knn.Fit({{1.0}}, {"a", "b"}).ok());
  EXPECT_FALSE(knn.Predict({1.0}).ok());  // not fit
  ASSERT_TRUE(knn.Fit({{1.0, 2.0}}, {"a"}).ok());
  EXPECT_FALSE(knn.Predict({1.0}).ok());  // dimension mismatch
}

TEST(ConceptRulesTest, CentroidSignatures) {
  std::string ns = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";
  // Feature order per FeatureNames().
  std::vector<double> sea(13, 0.0);
  sea[10] = 0.0;  // land_frac
  EXPECT_EQ(ConceptForCentroid(sea), ns + "Sea");
  std::vector<double> fire(13, 0.0);
  fire[10] = 1.0;
  fire[9] = 30.0;  // t_diff
  EXPECT_EQ(ConceptForCentroid(fire), ns + "Hotspot");
  std::vector<double> forest(13, 0.0);
  forest[10] = 1.0;
  forest[8] = 0.5;  // ndvi
  EXPECT_EQ(ConceptForCentroid(forest), ns + "Forest");
  std::vector<double> cloud(13, 0.0);
  cloud[11] = 0.9;
  EXPECT_EQ(ConceptForCentroid(cloud), ns + "Cloud");
}

TEST(AnnotationTest, AnnotatesScenePatches) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 8);
  ASSERT_TRUE(patches.ok());
  auto annotations = AnnotatePatches(*patches, 6, 3);
  ASSERT_TRUE(annotations.ok()) << annotations.status().ToString();
  EXPECT_EQ(annotations->size(), patches->size());
  std::set<std::string> concepts;
  for (const Annotation& a : *annotations) {
    concepts.insert(a.concept_iri);
    EXPECT_GT(a.confidence, 0.0);
    EXPECT_LE(a.confidence, 1.0);
  }
  // Several distinct concepts appear (the scene has land, sea, clouds).
  EXPECT_GE(concepts.size(), 2u);
}

TEST(AnnotationTest, SeaPatchesLabeledSea) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 8);
  ASSERT_TRUE(patches.ok());
  auto annotations = AnnotatePatches(*patches, 6, 3);
  ASSERT_TRUE(annotations.ok());
  std::string ns = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";
  size_t sea_right = 0, sea_total = 0;
  for (const Annotation& a : *annotations) {
    if (a.patch.features[10] < 0.05 && a.patch.features[11] < 0.3) {
      ++sea_total;
      if (a.concept_iri == ns + "Sea") ++sea_right;
    }
  }
  ASSERT_GT(sea_total, 0u);
  EXPECT_GT(static_cast<double>(sea_right) / sea_total, 0.7);
}

TEST(AnnotationTest, PublishesToStrabon) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 16);
  ASSERT_TRUE(patches.ok());
  auto annotations = AnnotatePatches(*patches, 4, 3);
  ASSERT_TRUE(annotations.ok());
  strabon::Strabon strabon;
  auto added = PublishAnnotations(*annotations, "prod1", &strabon);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, annotations->size() * 5);
  auto found = strabon.Select(
      "SELECT ?p ?c WHERE { ?p a noa:Patch ; noa:hasConcept ?c ; "
      "noa:derivedFromProduct ?prod }");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->num_rows(), annotations->size());
}

TEST(AnnotationServiceTest, InteractiveCorrectionPropagates) {
  eo::Scene scene = TestScene();
  auto patches = *CutPatches(scene, 8);
  AnnotationService service;
  ASSERT_TRUE(service.Annotate(patches, 6, 3).ok());
  ASSERT_EQ(service.annotations().size(), patches.size());
  // Find two patches with very similar features (same cluster likely):
  // correct one, propagation should relabel similar uncorrected ones.
  std::string custom =
      "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#BurnedArea";
  // Correct three sea-ish patches to the custom concept.
  size_t corrected = 0;
  for (size_t i = 0; i < patches.size() && corrected < 3; ++i) {
    if (patches[i].features[10] < 0.05) {  // land_frac ~ 0: open sea
      ASSERT_TRUE(service.Correct(i, custom).ok());
      ++corrected;
    }
  }
  ASSERT_EQ(corrected, 3u);
  EXPECT_EQ(service.corrections(), 3u);
  auto changed = service.Propagate(1);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  // With k=1 every uncorrected patch snaps to its nearest feedback label,
  // so all remaining patches change to the custom concept.
  EXPECT_GT(*changed, 0u);
  size_t custom_count = 0;
  for (const Annotation& a : service.annotations()) {
    if (a.concept_iri == custom) ++custom_count;
  }
  EXPECT_GT(custom_count, 3u);
}

TEST(AnnotationServiceTest, CorrectValidation) {
  AnnotationService service;
  EXPECT_FALSE(service.Correct(0, "x").ok());        // nothing annotated
  EXPECT_FALSE(service.Propagate().ok());            // no corrections
  eo::Scene scene = TestScene();
  auto patches = *CutPatches(scene, 16);
  ASSERT_TRUE(service.Annotate(patches, 4, 3).ok());
  EXPECT_FALSE(service.Correct(patches.size(), "x").ok());  // out of range
}

TEST(AnnotationServiceTest, RepublishReplacesOldAnnotations) {
  eo::Scene scene = TestScene();
  auto patches = *CutPatches(scene, 16);
  AnnotationService service;
  ASSERT_TRUE(service.Annotate(patches, 4, 3).ok());
  core::VirtualEarthObservatory veo;
  strabon::Strabon& strabon = veo.strabon();
  ASSERT_TRUE(veo.PublishAnnotations(service, "p1").ok());
  size_t first = strabon.size();
  // Correct one and publish again: total patch count must not grow.
  ASSERT_TRUE(service
                  .Correct(0,
                           "http://teleios.di.uoa.gr/ontologies/"
                           "noaOntology.owl#Sea")
                  .ok());
  ASSERT_TRUE(veo.PublishAnnotations(service, "p1").ok());
  auto count = strabon.Select(
      "SELECT (count(*) AS ?n) WHERE { ?p a noa:Patch }");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(strabon.store().dict().At(count->column(0).GetInt64(0)).lexical,
            std::to_string(patches.size()));
  EXPECT_GE(strabon.size(), first);
}

TEST(AnnotationServiceTest, PublishPropagatesDeleteFailure) {
  // Regression: publication used to drop the Status of the DELETE that
  // clears the previous annotation set. A product id that breaks the
  // SPARQL IRI (the space below) makes the DELETE unparseable; before
  // the fix publication still reported OK while stale annotations
  // survived alongside the fresh ones.
  eo::Scene scene = TestScene();
  auto patches = *CutPatches(scene, 16);
  AnnotationService service;
  ASSERT_TRUE(service.Annotate(patches, 4, 3).ok());
  core::VirtualEarthObservatory veo;
  auto published = veo.PublishAnnotations(service, "p 1");
  EXPECT_FALSE(published.ok());
}

/// k sweep: annotation never crashes and confidence stays sane.
class KSweep : public ::testing::TestWithParam<int> {};

TEST_P(KSweep, AnnotateAcrossK) {
  eo::Scene scene = TestScene();
  auto patches = CutPatches(scene, 8);
  ASSERT_TRUE(patches.ok());
  auto annotations = AnnotatePatches(*patches, GetParam(), 3);
  ASSERT_TRUE(annotations.ok());
  EXPECT_EQ(annotations->size(), patches->size());
}

INSTANTIATE_TEST_SUITE_P(Ks, KSweep, ::testing::Values(2, 4, 8, 12));

}  // namespace
}  // namespace teleios::mining
