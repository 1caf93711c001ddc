// Scan & Map + forward indexing (§3.2).
//
// Each rank receives a byte-balanced contiguous slice of the source set,
// tokenizes its documents, registers unique terms in the distributed
// hashmap (batched ARMCI-style RPCs), and builds the forward index:
// a field-to-term table and a document-to-field table.  The tables are
// stored in global arrays "so that they are globally accessible when
// processes exchange information during inverted file indexing".
//
// After the global hashmap is fully populated, the vocabulary is
// canonicalized (lexicographic IDs) so every downstream product is
// reproducible independent of the processor count, and the local records
// are rewritten in canonical IDs.  (Under the process and socket backends
// each rank keeps its own terms and the canonicalization merges the
// ranks' sorted runs; see ga/dist_hashmap.hpp.)
//
// The sharded path scans one shard at a time the same way: the shard is
// cut into one byte-balanced slice per rank, so all ranks scan it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sva/corpus/document.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/ga/dist_hashmap.hpp"
#include "sva/ga/global_array.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/text/tokenizer.hpp"

namespace sva::text {

/// One scanned field: its type and the (canonical) term ids in occurrence
/// order.
struct ScannedField {
  std::int32_t type = 0;
  std::vector<std::int64_t> terms;
};

/// One scanned record (document) held by its owning rank.
struct ScannedRecord {
  std::uint64_t doc_id = 0;  ///< global record id (corpus position)
  /// Raw byte size of the source document.  Carried so checkpoint resume
  /// can reproduce the byte-balanced partition without the raw corpus.
  std::uint64_t raw_bytes = 0;
  std::vector<ScannedField> fields;

  [[nodiscard]] std::size_t term_count() const {
    std::size_t n = 0;
    for (const auto& f : fields) n += f.terms.size();
    return n;
  }
};

/// Globally accessible forward index in global arrays (CSR over field
/// instances).  Field instance f spans
///   field_terms[field_offsets[f] .. field_offsets[f+1])
/// and belongs to record field_record[f] with type field_type[f].
struct ForwardIndex {
  ga::GlobalArray<std::int64_t> field_terms;    ///< concatenated term ids
  ga::GlobalArray<std::int64_t> field_offsets;  ///< F+1 offsets
  ga::GlobalArray<std::int64_t> field_record;   ///< F: record gid
  ga::GlobalArray<std::int32_t> field_type;     ///< F: field type id
  std::uint64_t num_fields = 0;
  std::uint64_t num_records = 0;
  std::uint64_t total_terms = 0;
  /// Field-instance interval [begin, end) scanned by each rank; the
  /// indexer uses these as the per-rank "loads" for owner-first
  /// scheduling.  Replicated on every rank.
  std::vector<std::pair<std::size_t, std::size_t>> rank_field_ranges;
};

/// Per-rank scan statistics (aggregated views are produced on demand).
struct ScanStats {
  std::size_t bytes_scanned = 0;
  std::size_t records_scanned = 0;
  std::size_t empty_fields = 0;
  TokenStats tokens;
};

/// Everything the scanning component produces.
struct ScanResult {
  ForwardIndex forward;
  std::vector<ScannedRecord> records;  ///< this rank's records, canonical ids
  std::pair<std::size_t, std::size_t> doc_range;  ///< this rank's slice
  std::shared_ptr<const ga::Vocabulary> vocabulary;  ///< replicated
  std::vector<std::string> field_type_names;         ///< replicated, sorted
  ScanStats stats;                                   ///< this rank's counters
};

/// Collective: scans `sources` with the tokenizer configuration and
/// returns the forward index + local records.  All ranks pass the same
/// sources and config.
ScanResult scan_sources(ga::Context& ctx, const corpus::SourceSet& sources,
                        const TokenizerConfig& tokenizer_config);

/// Collective: scans one shard [shard.first, shard.second) of `reader`.
/// Each rank tokenizes the documents of its own range in
/// `rank_doc_ranges`, which must lie inside the shard (corpus::slice_shard
/// cuts the shard into one byte-balanced slice per rank).  The
/// returned records are this rank's slice; the caller moves them to
/// their owners.  The returned vocabulary, ids and forward index cover
/// this shard only (shard-canonical term ids, independent of the
/// slicing); forward.num_records is the shard's record count.  Only the
/// shard's documents are materialized.
ScanResult scan_shard(ga::Context& ctx, const corpus::CorpusReader& reader,
                      std::pair<std::size_t, std::size_t> shard,
                      const std::vector<std::pair<std::size_t, std::size_t>>& rank_doc_ranges,
                      const TokenizerConfig& tokenizer_config);

/// Collective: assembles and publishes the CSR forward index over every
/// rank's (canonical-id) records — the scanner's final step, reused by
/// the shard merger to rebuild the merged forward product.
/// `num_records` is the global record count.
ForwardIndex build_forward_index(ga::Context& ctx, const std::vector<ScannedRecord>& records,
                                 std::uint64_t num_records);

}  // namespace sva::text
