// Shard-by-shard ingestion products and their merge (out-of-core stage
// 1–2).
//
// The sharded pipeline scans and inverts one document shard at a time;
// each shard's global arrays are dropped as soon as its *extract* — the
// shard vocabulary, per-term statistics, and the d-gap-compressed
// term→record postings — has been captured.  Extracts serialize to two
// compact blobs (vocabulary / data) that rank 0 retains and re-broadcasts
// during the merge, so no rank ever holds more than one decoded shard
// beyond the final merged products:
//
//   pass 1 (vocabulary): k-way merge the sorted shard vocabularies into
//   the canonical lexicographic order — byte-identical to what a
//   single-pass scan canonicalizes — deriving per-shard remaps in the
//   same walk;
//
//   pass 2 (data): accumulate term/document frequencies (each record
//   lives in exactly one shard, so both are exact sums) and place each
//   shard's record postings into the merged term→record CSR, each rank
//   handling the terms of its own block.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sva/ga/dist_hashmap.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/index/codec.hpp"
#include "sva/index/inverted_index.hpp"
#include "sva/text/scanner.hpp"

namespace sva::index {

/// One shard's merged-state inputs, decoded form.
struct ShardExtract {
  std::vector<std::string> terms;             ///< shard-canonical (sorted)
  std::vector<std::string> field_type_names;  ///< shard-canonical (sorted)
  std::vector<std::int64_t> term_frequency;   ///< per shard term
  std::vector<std::int64_t> doc_frequency;    ///< per shard term
  CompressedIndex postings;                   ///< term→record, d-gaps
  std::uint64_t num_records = 0;              ///< records in this shard
  std::uint64_t total_occurrences = 0;

  /// Vocabulary blob: terms + field-type names (merge pass 1).
  [[nodiscard]] std::vector<std::uint8_t> serialize_vocab() const;
  /// Data blob: statistics + compressed postings (merge pass 2).
  [[nodiscard]] std::vector<std::uint8_t> serialize_data() const;

  /// Inverses; throw FormatError on malformed bytes.
  static void deserialize_vocab(std::span<const std::uint8_t> bytes, ShardExtract& out);
  static void deserialize_data(std::span<const std::uint8_t> bytes, ShardExtract& out);
};

/// Serialized extract as retained by rank 0 between shard passes.
struct ShardBlobs {
  std::vector<std::uint8_t> vocab;
  std::vector<std::uint8_t> data;
};

/// Collective: captures one shard's extract from its scan + indexing
/// products (statistics replicated via one-sided reads, postings via
/// compress_record_index).  Every rank returns the same extract.
ShardExtract extract_shard(ga::Context& ctx, const text::ScanResult& scan,
                           const IndexingResult& indexing);

/// The merged stage-1–2 state: canonical global vocabulary, exact global
/// term statistics, the merged term→record index, and the per-shard id
/// remaps the caller needs to rewrite its records into final canonical
/// ids.  (Field-instance postings are intra-shard scaffolding and are not
/// merged; the merged InvertedIndex carries the record-level product.)
struct MergedShards {
  std::shared_ptr<const ga::Vocabulary> vocabulary;
  std::vector<std::string> field_type_names;
  TermStats stats;
  InvertedIndex index;
  std::uint64_t num_records = 0;
  std::uint64_t total_occurrences = 0;
  std::vector<std::vector<std::int64_t>> term_remap;        ///< [shard][shard id] → final id
  std::vector<std::vector<std::int32_t>> field_type_remap;  ///< [shard][shard id] → final id
};

/// Collective: merges `num_shards` extracts.  `blobs` need only be
/// populated on rank 0 — each blob is broadcast, decoded, applied and
/// dropped in turn; every rank passes the same `num_shards`.
MergedShards merge_shards(ga::Context& ctx, std::span<const ShardBlobs> blobs,
                          std::size_t num_shards);

}  // namespace sva::index
