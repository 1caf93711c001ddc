// Fuzz-style round-trip coverage for sig/persist and index/codec: many
// randomized shapes and payloads (including the edge cases the engine
// actually produces — empty corpus, single-document corpus, and
// unicode-heavy lexicons) must survive a write/read or encode/decode
// cycle bit-exactly, and malformed bytes must raise FormatError rather
// than crash or return garbage.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sva/index/codec.hpp"
#include "sva/sig/persist.hpp"
#include "sva/util/error.hpp"
#include "temp_path.hpp"

namespace sva {
namespace {

using sva::testing::test_temp_dir;

// ---- sig/persist ------------------------------------------------------------

/// Splits `rows` rows across the world and returns this rank's shard.
sig::SignatureSet shard_rows(ga::Context& ctx, const std::vector<std::uint64_t>& doc_ids,
                             const std::vector<bool>& nulls, const Matrix& all,
                             std::size_t dim) {
  const auto nprocs = static_cast<std::size_t>(ctx.nprocs());
  const std::size_t rows = doc_ids.size();
  const std::size_t per = (rows + nprocs - 1) / nprocs;
  const std::size_t begin = std::min(rows, static_cast<std::size_t>(ctx.rank()) * per);
  const std::size_t end = std::min(rows, begin + per);

  sig::SignatureSet s;
  s.dimension = dim;
  s.docvecs = Matrix(end - begin, dim);
  for (std::size_t g = begin; g < end; ++g) {
    for (std::size_t d = 0; d < dim; ++d) s.docvecs.at(g - begin, d) = all.at(g, d);
    s.doc_ids.push_back(doc_ids[g]);
    s.is_null.push_back(nulls[g]);
  }
  return s;
}

/// Writes on a world of `nprocs` ranks, reads back serially, and checks
/// every field bit-exactly.
void roundtrip_signatures(int nprocs, std::size_t rows, std::size_t dim,
                          const std::vector<std::string>& names, std::mt19937_64& rng,
                          const std::string& tag) {
  std::vector<std::uint64_t> doc_ids(rows);
  std::vector<bool> nulls(rows);
  Matrix all(rows, dim);

  // Payload mixes ordinary values with the nasty corners of double.
  const double specials[] = {0.0, -0.0, 1.0, -1e300, 5e-324,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  for (std::size_t i = 0; i < rows; ++i) {
    doc_ids[i] = rng();
    nulls[i] = (rng() & 1) != 0;
    for (std::size_t d = 0; d < dim; ++d) {
      all.at(i, d) = (rng() % 8 == 0) ? specials[rng() % std::size(specials)] : uniform(rng);
    }
  }

  const auto path = test_temp_dir() / (tag + ".bin");
  ga::spmd_run(nprocs, [&](ga::Context& ctx) {
    const auto s = shard_rows(ctx, doc_ids, nulls, all, dim);
    sig::write_signatures(ctx, path.string(), s, names);
  });

  const sig::PersistedSignatures store = sig::read_signatures(path.string());
  EXPECT_EQ(store.topic_terms, names);
  ASSERT_EQ(store.size(), rows);
  ASSERT_EQ(store.dimension(), dim);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(store.doc_ids[i], doc_ids[i]);
    EXPECT_EQ(store.is_null[i], nulls[i]);
    for (std::size_t d = 0; d < dim; ++d) {
      // Bit-exact comparison (survives NaN/-0.0, unlike operator==).
      EXPECT_EQ(std::bit_cast<std::uint64_t>(store.docvecs.at(i, d)),
                std::bit_cast<std::uint64_t>(all.at(i, d)))
          << "row " << i << " dim " << d;
    }
  }
  std::filesystem::remove(path);
}

std::vector<std::string> ascii_names(std::size_t dim) {
  std::vector<std::string> names;
  for (std::size_t j = 0; j < dim; ++j) names.push_back("term_" + std::to_string(j));
  return names;
}

TEST(PersistRoundtripTest, EmptyCorpus) {
  std::mt19937_64 rng(7);
  for (const int nprocs : {1, 2, 4}) {
    roundtrip_signatures(nprocs, 0, 3, ascii_names(3), rng, "empty");
  }
}

TEST(PersistRoundtripTest, SingleDocumentCorpus) {
  std::mt19937_64 rng(11);
  // One document, more ranks than rows: most ranks contribute nothing.
  for (const int nprocs : {1, 2, 4}) {
    roundtrip_signatures(nprocs, 1, 5, ascii_names(5), rng, "onedoc");
  }
}

TEST(PersistRoundtripTest, UnicodeHeavyLexicon) {
  std::mt19937_64 rng(13);
  // Multi-byte UTF-8, combining marks, an empty label, embedded spaces,
  // and a string of raw high bytes: the store must treat labels as bytes.
  const std::vector<std::string> names = {
      "κυτταρικός",            // Greek
      "信号伝達経路",           // CJK
      "ацетилхолин",           // Cyrillic
      "naïve-böhm",            // Latin + diacritics
      "🧬🔬",                  // astral-plane emoji
      "e\xCC\x81tude",         // combining acute accent
      "",                      // empty label
      "two words",             // embedded space
      std::string("\xFF\xFE\x80raw", 6),  // not valid UTF-8 at all
  };
  roundtrip_signatures(2, 17, names.size(), names, rng, "unicode");
}

TEST(PersistRoundtripTest, FuzzedShapes) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 24; ++iter) {
    const std::size_t rows = rng() % 40;
    const std::size_t dim = 1 + rng() % 12;
    std::vector<std::string> names;
    for (std::size_t j = 0; j < dim; ++j) {
      std::string name;
      const std::size_t len = rng() % 24;
      for (std::size_t c = 0; c < len; ++c) name.push_back(static_cast<char>(rng() % 256));
      names.push_back(std::move(name));
    }
    const int nprocs = 1 << (rng() % 3);
    roundtrip_signatures(nprocs, rows, dim, names, rng, "fuzz" + std::to_string(iter));
  }
}

TEST(PersistRoundtripTest, TruncatedFilesThrowFormatError) {
  std::mt19937_64 rng(21);
  const auto path = test_temp_dir() / "trunc.bin";
  roundtrip_signatures(1, 6, 4, ascii_names(4), rng, "trunc_src");

  // Rebuild a valid store, then replay every strict prefix of it.
  const auto full_path = test_temp_dir() / "full.bin";
  ga::spmd_run(1, [&](ga::Context& ctx) {
    std::vector<std::uint64_t> ids = {1, 2, 3};
    std::vector<bool> nulls = {false, true, false};
    Matrix m(3, 2);
    const auto s = shard_rows(ctx, ids, nulls, m, 2);
    sig::write_signatures(ctx, full_path.string(), s, ascii_names(2));
  });
  std::ifstream in(full_path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 8u);

  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_THROW((void)sig::read_signatures(path.string()), Error) << "prefix " << cut;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(full_path);
}

// ---- index/codec ------------------------------------------------------------

TEST(CodecRoundtripTest, FuzzedValueStreams) {
  std::mt19937_64 rng(31);
  const std::int64_t max64 = std::numeric_limits<std::int64_t>::max();
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::int64_t> values(rng() % 64);
    for (auto& v : values) {
      switch (rng() % 4) {
        case 0: v = static_cast<std::int64_t>(rng() % 2); break;        // 0/1
        case 1: v = static_cast<std::int64_t>(rng() % 128); break;      // 1 byte
        case 2: v = static_cast<std::int64_t>(rng() % 100000); break;   // mid
        default: v = max64 - static_cast<std::int64_t>(rng() % 1000);   // near max
      }
    }
    const auto bytes = index::varbyte_encode(values);
    EXPECT_EQ(index::varbyte_decode(bytes), values);
  }
}

TEST(CodecRoundtripTest, FuzzedPostingLists) {
  std::mt19937_64 rng(37);
  for (int iter = 0; iter < 200; ++iter) {
    // Strictly ascending list with random gap profile.
    std::vector<std::int64_t> postings;
    std::int64_t cur = static_cast<std::int64_t>(rng() % 1000);
    const std::size_t len = rng() % 80;
    for (std::size_t i = 0; i < len; ++i) {
      postings.push_back(cur);
      cur += 1 + static_cast<std::int64_t>(rng() % ((iter % 5 == 0) ? 1u : 1u << 20));
    }
    const auto bytes = index::encode_postings(postings);
    EXPECT_EQ(index::decode_postings(bytes), postings);
  }
}

TEST(CodecRoundtripTest, EmptyAndSingletonLists) {
  EXPECT_TRUE(index::varbyte_decode(index::varbyte_encode({})).empty());
  EXPECT_TRUE(index::decode_postings(index::encode_postings({})).empty());
  const std::vector<std::int64_t> one = {0};
  EXPECT_EQ(index::decode_postings(index::encode_postings(one)), one);
}

TEST(CodecRoundtripTest, TruncatedStreamsThrowFormatError) {
  std::mt19937_64 rng(41);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::int64_t> values(1 + rng() % 16);
    for (auto& v : values) v = static_cast<std::int64_t>(rng() % (1u << 28));
    auto bytes = index::varbyte_encode(values);
    // Chop inside the final value: its continuation bit is left dangling.
    ASSERT_FALSE(bytes.empty());
    if ((bytes.back() & 0x80) == 0 && bytes.size() >= 2) {
      bytes.pop_back();
      if ((bytes.back() & 0x80) != 0) {
        EXPECT_THROW((void)index::varbyte_decode(bytes), FormatError);
      }
    }
  }
  // Deterministic case: a lone continuation byte.
  const std::vector<std::uint8_t> dangling = {0x80};
  EXPECT_THROW((void)index::varbyte_decode(dangling), FormatError);
  // Overlong value: a 10th byte would shift payload past bit 63 (a valid
  // non-negative int64 encoding is at most 9 bytes).
  std::vector<std::uint8_t> overlong(9, 0x80);
  overlong.push_back(0x01);
  EXPECT_THROW((void)index::varbyte_decode(overlong), FormatError);
}

}  // namespace
}  // namespace sva
