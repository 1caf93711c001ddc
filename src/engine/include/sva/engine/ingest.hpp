// Ingestion (pipeline stages 1–2): scan & map + inverted indexing, in
// two interchangeable flavours that produce byte-identical downstream
// products:
//
//   * ingest_single_pass — the paper's one-shot path: the whole corpus
//     is scanned at once (wraps text::scan_sources +
//     index::build_inverted_index);
//
//   * ingest_sharded — out-of-core: the corpus is cut into contiguous,
//     byte-balanced document shards; each shard is scanned by all ranks
//     (a byte-balanced slice each) and inverted under a bounded-memory
//     budget, reduced to a compact extract, and its global arrays
//     dropped; the extracts are merged into the exact global
//     vocabulary, term statistics and term→record index the single-pass
//     path computes.  Scanned records move to their owners under the
//     full-corpus byte partition, so every gathered product (and hence
//     the EngineResult checksum) is byte-identical for any shard count.
//     Residency is one shard's raw text at a time, spread over the ranks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sva/corpus/document.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/ga/dist_hashmap.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/ga/stage_timer.hpp"
#include "sva/index/inverted_index.hpp"
#include "sva/text/scanner.hpp"

namespace sva::engine {

/// Everything stages 3–7 (and the checkpoint layer) need from ingestion.
struct IngestState {
  // Replicated products.
  std::shared_ptr<const ga::Vocabulary> vocabulary;
  std::vector<std::string> field_type_names;

  // This rank's records in canonical ids (contiguous ascending slice of
  // the corpus).
  std::vector<text::ScannedRecord> records;

  // Global-array products.
  text::ForwardIndex forward;
  index::InvertedIndex index;  ///< sharded path: record-level product only
  index::TermStats stats;
  index::LoadBalanceReport load_balance;

  // Counts.
  std::uint64_t num_records = 0;
  std::uint64_t num_terms = 0;
  std::uint64_t total_term_occurrences = 0;
  std::size_t shards_used = 1;
};

/// Collective: one-shot stage 1–2 over a resident source set.  Marks
/// "scan" / "index" on `timer`.
IngestState ingest_single_pass(ga::Context& ctx, const corpus::SourceSet& sources,
                               const text::TokenizerConfig& tokenizer_config,
                               const index::IndexingConfig& indexing_config,
                               ga::StageTimer& timer);

/// Collective: sharded out-of-core stage 1–2 over a reader.  Marks
/// "scan" / "index" per shard plus the merge on `timer`.
IngestState ingest_sharded(ga::Context& ctx, const corpus::CorpusReader& reader,
                           const text::TokenizerConfig& tokenizer_config,
                           const index::IndexingConfig& indexing_config,
                           const corpus::ShardingConfig& sharding, ga::StageTimer& timer);

}  // namespace sva::engine
