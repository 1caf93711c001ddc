// Out-of-core corpus access and shard planning.
//
// The paper's engine assumes the whole corpus is handed to every rank in
// one pass; the sharded ingestion pipeline instead streams the corpus
// through a CorpusReader: cheap byte-size metadata up front (for shard
// planning and the paper's byte-balanced source partitioning) and
// on-demand materialization of individual documents.  Only the documents
// of the shard being scanned are ever resident.
//
//   * InMemoryReader adapts an existing SourceSet (no copies);
//   * GeneratedReader materializes synthetic documents one at a time —
//     generation is a pure function of (spec, doc_seq), so corpora far
//     beyond memory can be ingested shard by shard.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sva/corpus/document.hpp"
#include "sva/corpus/generator.hpp"

namespace sva::corpus {

/// Position-addressed document source.  `read` must be thread-safe: all
/// ranks of an SPMD world pull their slices concurrently.
class CorpusReader {
 public:
  virtual ~CorpusReader() = default;

  /// Number of documents in the corpus.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Byte size of document `i` — metadata only, must not require
  /// materializing the document for readers that can avoid it.
  [[nodiscard]] virtual std::size_t doc_bytes(std::size_t i) const = 0;

  /// Materializes document `i`.  Thread-safe, any order.
  [[nodiscard]] virtual RawDocument read(std::size_t i) const = 0;

  /// Zero-copy access for scan loops: returns a pointer either into the
  /// reader's resident storage or to `scratch` after filling it.  The
  /// pointer is valid until the next fetch through the same scratch.
  [[nodiscard]] virtual const RawDocument* fetch(std::size_t i, RawDocument& scratch) const {
    scratch = read(i);
    return &scratch;
  }

  [[nodiscard]] std::size_t total_bytes() const;

  /// Per-document byte sizes in position order (shard planning input).
  [[nodiscard]] std::vector<std::size_t> doc_sizes() const;
};

/// Zero-copy adapter over a resident SourceSet.
class InMemoryReader final : public CorpusReader {
 public:
  explicit InMemoryReader(const SourceSet& sources) : sources_(&sources) {}

  [[nodiscard]] std::size_t size() const override { return sources_->size(); }
  [[nodiscard]] std::size_t doc_bytes(std::size_t i) const override {
    return (*sources_)[i].bytes();
  }
  [[nodiscard]] RawDocument read(std::size_t i) const override { return (*sources_)[i]; }
  [[nodiscard]] const RawDocument* fetch(std::size_t i, RawDocument&) const override {
    return &(*sources_)[i];
  }

 private:
  const SourceSet* sources_;
};

/// Streams a synthetic corpus without ever holding it whole: a one-time
/// metadata pass records per-document byte sizes (documents are generated
/// and immediately dropped), after which read(i) regenerates document i
/// on demand.
class GeneratedReader final : public CorpusReader {
 public:
  explicit GeneratedReader(const CorpusSpec& spec);

  [[nodiscard]] std::size_t size() const override { return sizes_.size(); }
  [[nodiscard]] std::size_t doc_bytes(std::size_t i) const override { return sizes_[i]; }
  [[nodiscard]] RawDocument read(std::size_t i) const override;

 private:
  DocumentGenerator generator_;
  std::vector<std::size_t> sizes_;
};

/// Contiguous window [begin, end) of another reader (position j here
/// reads position begin+j underneath), with document ids *rebased* to
/// slice-local positions 0..size()-1.  The delta-ingestion driver uses
/// this to treat the tail of a combined corpus as "the new documents":
/// engine::ingest_delta expects position ids from its reader and assigns
/// the global ids (base_records + position) itself.
class SliceReader final : public CorpusReader {
 public:
  SliceReader(const CorpusReader& under, std::size_t begin, std::size_t end)
      : under_(&under), begin_(begin), end_(end) {}

  [[nodiscard]] std::size_t size() const override { return end_ - begin_; }
  [[nodiscard]] std::size_t doc_bytes(std::size_t i) const override {
    return under_->doc_bytes(begin_ + i);
  }
  [[nodiscard]] RawDocument read(std::size_t i) const override {
    RawDocument doc = under_->read(begin_ + i);
    doc.id = i;
    return doc;
  }

 private:
  const CorpusReader* under_;
  std::size_t begin_;
  std::size_t end_;
};

/// How to cut the corpus into ingestion shards.
struct ShardingConfig {
  /// Explicit shard count (0 = derive from the memory budget, or 1).
  std::size_t num_shards = 0;
  /// Upper bound on resident raw-document bytes per shard (0 = no bound).
  /// When both are set, the stricter (larger) shard count wins.
  std::size_t mem_budget_bytes = 0;
};

/// Contiguous, byte-balanced shard ranges covering the corpus in order.
/// Shards beyond the document count collapse to empty tail ranges.
std::vector<std::pair<std::size_t, std::size_t>> plan_shards(const CorpusReader& reader,
                                                             const ShardingConfig& config);

/// The rank slices one shard is scanned in: `shard` cut into `nprocs`
/// contiguous, ascending, byte-balanced document ranges (corpus
/// positions; `doc_sizes` covers the whole corpus).  When the shard holds
/// at least `nprocs` documents every slice is non-empty, so every rank
/// scans a share of every such shard.
std::vector<std::pair<std::size_t, std::size_t>> slice_shard(
    const std::vector<std::size_t>& doc_sizes, std::pair<std::size_t, std::size_t> shard,
    int nprocs);

}  // namespace sva::corpus
