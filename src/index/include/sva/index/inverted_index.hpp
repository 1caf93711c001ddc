// Parallel Inverted File Indexing (§3.3).
//
// Implements the parallel FAST-INV scheme of the paper on top of the
// forward index built by the scanner:
//
//   Phase A (counting): each rank scans its local slice of the global
//   field-to-term table and accumulates per-term counts (term frequency
//   and term→field posting counts) into global arrays.  An exclusive
//   prefix sum over the counts yields posting offsets — FAST-INV's
//   "load table" that lets postings be placed without collisions.
//
//   Phase B (placement, dynamically load balanced): the field table is
//   cut into fixed-size chunks of fields ("loads").  Workers claim loads
//   from a shared task queue (GA atomic fetch-and-increment, own loads
//   first) and write term→field postings into the preallocated global
//   posting array via one batched cursor reservation (element-list
//   fetch-and-add) plus one batched scatter per load — GA/ARMCI-style
//   aggregation, one modeled message per owner rank.
//
//   Phase C (aggregation): term→field postings are aggregated into the
//   term→record index: each rank resolves its owned terms' field postings
//   to record ids, sorts and deduplicates them, and writes the final
//   term→record CSR.  Document frequencies (the remaining global term
//   statistic) fall out of the deduplication.
#pragma once

#include <cstdint>
#include <vector>

#include "sva/ga/global_array.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/ga/task_queue.hpp"
#include "sva/text/scanner.hpp"

namespace sva::index {

struct IndexingConfig {
  ga::Scheduling scheduling = ga::Scheduling::kOwnerFirst;
  /// Fields per load — the fixed-size chunking granularity [19].
  std::size_t chunk_fields = 128;
};

/// Term→field and term→record indexes in global arrays (CSR, one block of
/// terms per rank; term t's record postings live at
/// record_postings[record_offsets[t] .. record_offsets[t+1])).
struct InvertedIndex {
  ga::GlobalArray<std::int64_t> field_postings;   ///< term→field instance
  ga::GlobalArray<std::int64_t> field_offsets;    ///< N+1
  ga::GlobalArray<std::int64_t> record_postings;  ///< term→record (dedup, sorted)
  ga::GlobalArray<std::int64_t> record_offsets;   ///< N+1
  std::uint64_t num_terms = 0;
  std::uint64_t total_field_postings = 0;
  std::uint64_t total_record_postings = 0;
};

/// Global term statistics (§3.3): per-term document and collection
/// frequencies, distributed by term block.
struct TermStats {
  ga::GlobalArray<std::int64_t> term_frequency;  ///< N: total occurrences
  ga::GlobalArray<std::int64_t> doc_frequency;   ///< N: records containing
  std::uint64_t num_terms = 0;
  std::uint64_t num_records = 0;
  std::uint64_t total_occurrences = 0;
};

/// Load-balance telemetry for Figure 9: how long each rank was busy in
/// the placement phase and how many loads it processed.
struct LoadBalanceReport {
  std::vector<double> busy_seconds;       ///< per rank, virtual time
  std::vector<std::int64_t> loads_claimed;  ///< per rank

  [[nodiscard]] double max_busy() const;
  [[nodiscard]] double mean_busy() const;
  /// max/mean busy time; 1.0 is perfect balance.
  [[nodiscard]] double imbalance() const;
};

struct IndexingResult {
  InvertedIndex index;
  TermStats stats;
  LoadBalanceReport load_balance;
};

/// Collective: inverts `forward` into term→field and term→record indexes
/// and computes global term statistics.
IndexingResult build_inverted_index(ga::Context& ctx, const text::ForwardIndex& forward,
                                    std::size_t num_terms, const IndexingConfig& config = {});

}  // namespace sva::index
