// Serial reference implementations ("oracles") the parallel pipeline is
// validated against.  Deliberately naive and obviously correct.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sva/corpus/document.hpp"
#include "sva/text/tokenizer.hpp"

namespace sva::testing {

/// Serial scan: canonical (sorted) vocabulary plus per-document/field term
/// ids and global statistics.
struct SerialScan {
  std::vector<std::string> vocabulary;                 // sorted
  std::map<std::string, std::int64_t> term_to_id;     // canonical
  // doc -> field -> canonical term ids in occurrence order
  std::vector<std::vector<std::vector<std::int64_t>>> doc_field_terms;
  std::vector<std::string> field_type_names;           // sorted
  std::vector<std::vector<std::int32_t>> doc_field_types;
  std::map<std::int64_t, std::int64_t> term_frequency;
  std::map<std::int64_t, std::set<std::int64_t>> term_documents;   // df sets
  std::map<std::int64_t, std::set<std::int64_t>> term_fields;      // global field ids
  std::uint64_t total_terms = 0;
};

inline SerialScan serial_scan(const corpus::SourceSet& sources,
                              const text::TokenizerConfig& config) {
  const text::Tokenizer tokenizer(config);
  SerialScan out;

  // Pass 1: tokenize, collect vocab + field names.
  std::vector<std::vector<std::vector<std::string>>> doc_field_tokens;
  std::set<std::string> vocab_set;
  std::set<std::string> field_set;
  for (const auto& doc : sources.docs()) {
    std::vector<std::vector<std::string>> fields;
    for (const auto& field : doc.fields) {
      auto tokens = tokenizer.tokenize(field.text);
      for (const auto& tok : tokens) vocab_set.insert(tok);
      field_set.insert(field.name);
      fields.push_back(std::move(tokens));
    }
    doc_field_tokens.push_back(std::move(fields));
  }

  out.vocabulary.assign(vocab_set.begin(), vocab_set.end());
  for (std::size_t i = 0; i < out.vocabulary.size(); ++i) {
    out.term_to_id[out.vocabulary[i]] = static_cast<std::int64_t>(i);
  }
  out.field_type_names.assign(field_set.begin(), field_set.end());
  std::map<std::string, std::int32_t> field_type_id;
  for (std::size_t i = 0; i < out.field_type_names.size(); ++i) {
    field_type_id[out.field_type_names[i]] = static_cast<std::int32_t>(i);
  }

  // Pass 2: ids + statistics.
  std::int64_t global_field = 0;
  for (std::size_t d = 0; d < doc_field_tokens.size(); ++d) {
    std::vector<std::vector<std::int64_t>> fields_ids;
    std::vector<std::int32_t> fields_types;
    for (std::size_t f = 0; f < doc_field_tokens[d].size(); ++f) {
      std::vector<std::int64_t> ids;
      for (const auto& tok : doc_field_tokens[d][f]) {
        const auto id = out.term_to_id.at(tok);
        ids.push_back(id);
        ++out.term_frequency[id];
        out.term_documents[id].insert(static_cast<std::int64_t>(d));
        out.term_fields[id].insert(global_field);
        ++out.total_terms;
      }
      fields_types.push_back(field_type_id.at(sources[d].fields[f].name));
      fields_ids.push_back(std::move(ids));
      ++global_field;
    }
    out.doc_field_terms.push_back(std::move(fields_ids));
    out.doc_field_types.push_back(std::move(fields_types));
  }
  return out;
}

/// A tiny hand-written corpus for precise assertions.
inline corpus::SourceSet tiny_corpus() {
  corpus::SourceSet s;
  auto add = [&](std::uint64_t id, std::vector<std::pair<std::string, std::string>> fields) {
    corpus::RawDocument d;
    d.id = id;
    for (auto& [name, text] : fields) d.fields.push_back({name, text});
    s.add(std::move(d));
  };
  add(0, {{"TI", "parallel visual analytics"}, {"AB", "scalable parallel text engine text"}});
  add(1, {{"TI", "clustering documents"}, {"AB", "kmeans clustering projects documents fast"}});
  add(2, {{"TI", "inverted file indexing"}, {"AB", "fastinv builds inverted index tables"}});
  add(3, {{"TI", "visual terrain themes"}, {"AB", "themeview terrain shows visual themes"}});
  return s;
}

/// (doc id, score) pairs ordered best first.
using ScoredDocs = std::vector<std::pair<std::uint64_t, double>>;

/// Serial "more like this": the cosine of `probe` against every row of
/// `rows` (row-major, `dim` wide, aligned with `ids`; no null rows),
/// `exclude` skipped, descending cosine and ascending doc id on ties;
/// the first `k`.  Each sum runs in element order, as the query plane's.
inline ScoredDocs top_k_similar(const std::vector<std::uint64_t>& ids,
                                const std::vector<double>& rows, std::size_t dim,
                                const std::vector<double>& probe, std::size_t k,
                                std::optional<std::uint64_t> exclude) {
  ScoredDocs all;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (exclude && ids[i] == *exclude) continue;
    double dot = 0.0;
    double na = 0.0;
    double nb = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      dot += rows[i * dim + d] * probe[d];
      na += rows[i * dim + d] * rows[i * dim + d];
      nb += probe[d] * probe[d];
    }
    all.emplace_back(ids[i], (na <= 0.0 || nb <= 0.0) ? 0.0 : dot / std::sqrt(na * nb));
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Serial cluster representatives: the members of `cluster` by
/// ascending squared distance to `centroid`, ascending doc id on ties;
/// the first `k`.
inline ScoredDocs top_k_representatives(const std::vector<std::uint64_t>& ids,
                                        const std::vector<double>& rows, std::size_t dim,
                                        const std::vector<std::int32_t>& assignment,
                                        const std::vector<double>& centroid, int cluster,
                                        std::size_t k) {
  ScoredDocs all;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (assignment[i] != cluster) continue;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = rows[i * dim + d] - centroid[d];
      d2 += diff * diff;
    }
    all.emplace_back(ids[i], d2);
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace sva::testing
