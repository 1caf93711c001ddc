// Porter stemmer conformance: the classic examples from Porter (1980)
// plus the edge conditions of each step, and integration with the
// tokenizer's stem option.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sva/text/stemmer.hpp"
#include "sva/text/tokenizer.hpp"

namespace sva::text {
namespace {

struct Pair {
  const char* in;
  const char* out;
};

// gtest would otherwise print the two pointers' bytes, and ctest names
// the cases by that printout: the names would change with every build.
void PrintTo(const Pair& pair, std::ostream* os) { *os << pair.in << '_' << pair.out; }

class PorterPairTest : public ::testing::TestWithParam<Pair> {};

TEST_P(PorterPairTest, StemsToExpected) {
  const auto [in, out] = GetParam();
  EXPECT_EQ(porter_stem(in), out) << "input: " << in;
}

// Step 1a (plural handling) — examples straight from the paper.
INSTANTIATE_TEST_SUITE_P(Step1a, PorterPairTest,
                         ::testing::Values(Pair{"caresses", "caress"}, Pair{"ponies", "poni"},
                                           Pair{"ties", "ti"}, Pair{"caress", "caress"},
                                           Pair{"cats", "cat"}));

// Step 1b (-eed/-ed/-ing) with the e-restoration / undoubling cleanups.
INSTANTIATE_TEST_SUITE_P(Step1b, PorterPairTest,
                         ::testing::Values(Pair{"feed", "feed"}, Pair{"agreed", "agre"},
                                           Pair{"plastered", "plaster"}, Pair{"bled", "bled"},
                                           Pair{"motoring", "motor"}, Pair{"sing", "sing"},
                                           Pair{"conflated", "conflat"},
                                           Pair{"troubled", "troubl"}, Pair{"sized", "size"},
                                           Pair{"hopping", "hop"}, Pair{"tanned", "tan"},
                                           Pair{"falling", "fall"}, Pair{"hissing", "hiss"},
                                           Pair{"fizzed", "fizz"}, Pair{"failing", "fail"},
                                           Pair{"filing", "file"}));

// Step 1c (y -> i after a vowel-bearing stem).
INSTANTIATE_TEST_SUITE_P(Step1c, PorterPairTest,
                         ::testing::Values(Pair{"happy", "happi"}, Pair{"sky", "sky"}));

// Step 2 (double-suffix conflation; fires only when m > 0).
INSTANTIATE_TEST_SUITE_P(
    Step2, PorterPairTest,
    ::testing::Values(Pair{"relational", "relat"}, Pair{"conditional", "condit"},
                      Pair{"rational", "ration"}, Pair{"valenci", "valenc"},
                      Pair{"hesitanci", "hesit"}, Pair{"digitizer", "digit"},
                      Pair{"conformabli", "conform"}, Pair{"radicalli", "radic"},
                      Pair{"differentli", "differ"}, Pair{"vileli", "vile"},
                      Pair{"analogousli", "analog"}, Pair{"vietnamization", "vietnam"},
                      Pair{"predication", "predic"}, Pair{"operator", "oper"},
                      Pair{"feudalism", "feudal"}, Pair{"decisiveness", "decis"},
                      Pair{"hopefulness", "hope"}, Pair{"callousness", "callous"},
                      Pair{"formaliti", "formal"}, Pair{"sensitiviti", "sensit"},
                      Pair{"sensibiliti", "sensibl"}));

// Step 3.
INSTANTIATE_TEST_SUITE_P(Step3, PorterPairTest,
                         ::testing::Values(Pair{"triplicate", "triplic"},
                                           Pair{"formative", "form"},
                                           Pair{"formalize", "formal"},
                                           Pair{"electriciti", "electr"},
                                           Pair{"electrical", "electr"},
                                           Pair{"hopeful", "hope"},
                                           Pair{"goodness", "good"}));

// Step 4 (single suffixes, m > 1).
INSTANTIATE_TEST_SUITE_P(
    Step4, PorterPairTest,
    ::testing::Values(Pair{"revival", "reviv"}, Pair{"allowance", "allow"},
                      Pair{"inference", "infer"}, Pair{"airliner", "airlin"},
                      Pair{"gyroscopic", "gyroscop"}, Pair{"adjustable", "adjust"},
                      Pair{"defensible", "defens"}, Pair{"irritant", "irrit"},
                      Pair{"replacement", "replac"}, Pair{"adjustment", "adjust"},
                      Pair{"dependent", "depend"}, Pair{"adoption", "adopt"},
                      Pair{"homologou", "homolog"}, Pair{"communism", "commun"},
                      Pair{"activate", "activ"}, Pair{"angulariti", "angular"},
                      Pair{"homologous", "homolog"}, Pair{"effective", "effect"},
                      Pair{"bowdlerize", "bowdler"}));

// Step 5.
INSTANTIATE_TEST_SUITE_P(Step5, PorterPairTest,
                         ::testing::Values(Pair{"probate", "probat"}, Pair{"rate", "rate"},
                                           Pair{"cease", "ceas"}, Pair{"controll", "control"},
                                           Pair{"roll", "roll"}));

// Full-word conflation classes: the motivating example of the paper.
INSTANTIATE_TEST_SUITE_P(ConnectFamily, PorterPairTest,
                         ::testing::Values(Pair{"connect", "connect"},
                                           Pair{"connected", "connect"},
                                           Pair{"connecting", "connect"},
                                           Pair{"connection", "connect"},
                                           Pair{"connections", "connect"}));

// Domain-ish vocabulary a PubMed corpus would exercise.
INSTANTIATE_TEST_SUITE_P(Medical, PorterPairTest,
                         ::testing::Values(Pair{"cellular", "cellular"},
                                           Pair{"receptors", "receptor"},
                                           Pair{"inhibition", "inhibit"},
                                           Pair{"expressed", "express"},
                                           Pair{"signaling", "signal"},
                                           Pair{"mutations", "mutat"}));

TEST(StemmerTest, ShortWordsUnchanged) {
  EXPECT_EQ(porter_stem("a"), "a");
  EXPECT_EQ(porter_stem("as"), "as");
  EXPECT_EQ(porter_stem("is"), "is");
}

TEST(StemmerTest, NonAlphaTokensUnchanged) {
  EXPECT_EQ(porter_stem("x86_64"), "x86_64");
  EXPECT_EQ(porter_stem("covid-19"), "covid-19");
  EXPECT_EQ(porter_stem("3engines"), "3engines");
}

TEST(StemmerTest, EmptyStringUnchanged) { EXPECT_EQ(porter_stem(""), ""); }

TEST(StemmerTest, IdempotentOnCommonVocabulary) {
  // Stemming a stem must be stable for conflation to be well-defined.
  const std::vector<std::string> words = {
      "connection", "relational", "adjustment", "caresses", "motoring",
      "happiness",  "electrical", "dependent",  "activate", "formalize"};
  for (const auto& w : words) {
    const std::string once = porter_stem(w);
    EXPECT_EQ(porter_stem(once), once) << "not idempotent for " << w;
  }
}

TEST(StemmerTest, InplaceMatchesCopying) {
  std::string w = "connections";
  porter_stem_inplace(w);
  EXPECT_EQ(w, porter_stem("connections"));
}

TEST(TokenizerStemTest, StemOptionConflatesVariants) {
  TokenizerConfig config;
  config.stem = true;
  const Tokenizer t(config);
  const auto tokens = t.tokenize("connected connections connecting");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "connect");
  EXPECT_EQ(tokens[1], "connect");
  EXPECT_EQ(tokens[2], "connect");
}

TEST(TokenizerStemTest, StopwordsMatchedBeforeStemming) {
  // "this" must be dropped as a stopword, not stemmed into a new term.
  TokenizerConfig config;
  config.stem = true;
  const Tokenizer t(config);
  const auto tokens = t.tokenize("this bonding");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "bond");
}

TEST(TokenizerStemTest, DisabledByDefault) {
  const Tokenizer t;
  const auto tokens = t.tokenize("connections");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "connections");
}

}  // namespace
}  // namespace sva::text
