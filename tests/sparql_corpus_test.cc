// The stSPARQL evaluator against golden fingerprints of an earlier one:
// every statement of the seeded corpus in sparql_corpus.h must render byte
// for byte as recorded in golden/sparql_corpus.txt.

#include <gtest/gtest.h>

#include <fstream>
#include <iostream>

#include "sparql_corpus.h"

namespace teleios::corpus {
namespace {

TEST(SparqlCorpusTest, AnswersMatchTheGoldenFingerprints) {
  std::ifstream in(std::string(TELEIOS_GOLDEN_DIR) + "/sparql_corpus.txt");
  ASSERT_TRUE(in.good()) << "missing golden file";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  std::vector<std::string> render;
  std::vector<std::string> got = Fingerprints(&render);
  ASSERT_GE(got.size(), static_cast<size_t>(kStores) * Queries().size());
  ASSERT_EQ(got.size(), golden.size());
  int mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] == golden[i]) continue;
    // The first few differences, with what the current evaluator said.
    if (++mismatches <= 3) {
      ADD_FAILURE() << "expected " << golden[i] << "\n     got " << got[i]
                    << "\n" << render[i];
    }
  }
  EXPECT_EQ(mismatches, 0);
  std::cout << "[corpus] " << kStores << " stores, " << got.size()
            << " statements\n";
}

}  // namespace
}  // namespace teleios::corpus
