// Sessionized serving API over a persisted model bundle.
//
// The paper's conclusion names interactive exploration of massive
// datasets as the frontier past the batch pipeline; the classic query::
// free functions answered that inside the SPMD world that had just run
// the engine.  A Session decouples the two: the engine exports a model
// bundle once (engine/bundle.hpp), and any later world — at ANY
// processor count — opens it and serves queries off the single handle:
//
//   auto session = query::Session::open(ctx, "corpus.svab");
//   auto hits    = session.similar(doc_id, 10);
//   auto theme   = session.cluster_summary(3);
//   auto drill   = session.drill_down(3, sub_config);
//
// Every query reduction is order-invariant, so the answers are
// bit-identical to the free-function path over the live EngineResult,
// for any write-P/open-P combination.
//
// The batched query plane is the serving fast path: run_batch() executes
// many heterogeneous queries in one collective sweep — one exchange
// resolving every document probe, one fused per-rank scan over the
// signature rows, one merge of all tagged candidates — instead of
// paying the per-query collective latency N times.  The classic free
// functions (similar_documents, summarize_cluster, ...) are thin
// wrappers over the same plane with a one-element batch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sva/cluster/kmeans.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/query/explore.hpp"
#include "sva/query/similarity.hpp"

namespace sva::query {

/// One query of a (possibly heterogeneous) batch.  Queries passed to the
/// collective entry points must be identical on every rank.
struct Query {
  enum class Kind {
    kSimilarByProbe,   ///< top-k cosine neighbours of an M-vector
    kSimilarByDoc,     ///< top-k neighbours of a document (itself excluded)
    kClusterSummary,   ///< size/cohesion/labels/representatives of a cluster
  };

  Kind kind = Kind::kSimilarByProbe;
  std::vector<double> probe;  ///< kSimilarByProbe: M-vector
  std::uint64_t doc_id = 0;   ///< kSimilarByDoc
  int cluster = -1;           ///< kClusterSummary
  /// Top-k for similarity queries; representative count for summaries.
  std::size_t k = 10;

  static Query similar_probe(std::vector<double> probe_vec, std::size_t top_k) {
    Query q;
    q.kind = Kind::kSimilarByProbe;
    q.probe = std::move(probe_vec);
    q.k = top_k;
    return q;
  }
  static Query similar_doc(std::uint64_t doc, std::size_t top_k) {
    Query q;
    q.kind = Kind::kSimilarByDoc;
    q.doc_id = doc;
    q.k = top_k;
    return q;
  }
  static Query cluster_summary(int cluster_id, std::size_t num_representatives = 5) {
    Query q;
    q.kind = Kind::kClusterSummary;
    q.cluster = cluster_id;
    q.k = num_representatives;
    return q;
  }
};

/// Result slot aligned with the query batch; `kind` selects the live
/// member (`hits` for similarity queries, `summary` for summaries).
struct QueryResult {
  Query::Kind kind = Query::Kind::kSimilarByProbe;
  std::vector<SimilarDoc> hits;
  ClusterSummary summary;
};

/// Non-owning view of the analysis products one query sweep runs over —
/// a Session points this at its bundle; the classic free functions point
/// it at the caller's live engine products.  `assignment`, `clustering`
/// and `theme_labels` may be null when the batch contains no summaries.
struct QueryInputs {
  const sig::SignatureSet* signatures = nullptr;
  const std::vector<std::int32_t>* assignment = nullptr;
  const cluster::KMeansResult* clustering = nullptr;
  const std::vector<std::vector<std::string>>* theme_labels = nullptr;
  /// Optional doc id → local row index over `signatures` (a Session
  /// builds it once at open; the one-shot wrappers leave it null and the
  /// sweep indexes on demand).
  const std::unordered_map<std::uint64_t, std::size_t>* doc_index = nullptr;
  /// Optional squared norm of every local row of `signatures` (a Session
  /// computes them once at open; the one-shot wrappers leave it null and
  /// the sweep computes them per call, in the same accumulation order).
  const std::vector<double>* row_norms2 = nullptr;
};

/// Cooperative control of one batched sweep — the serving daemon's
/// shutdown and overload paths.  The sweep polls collectively at its
/// phase boundaries (entry, post-probe-exchange, post-scan): when any
/// rank observes `cancel` set or its steady clock past `deadline`, every
/// rank abandons the sweep, sets `*cancelled` (if given) and returns an
/// empty result vector — the world stays healthy for the next sweep.
/// A default-constructed control is inert and adds no collectives.
struct BatchControl {
  /// Cancellation flag shared with the caller (e.g. a shutdown handler).
  const std::atomic<bool>* cancel = nullptr;
  /// Abandon the sweep once any rank's steady clock passes this;
  /// time_point{} (the default) means no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Set to true on every rank when the sweep stopped early.
  std::atomic<bool>* cancelled = nullptr;

  [[nodiscard]] bool inert() const {
    return cancel == nullptr && deadline == std::chrono::steady_clock::time_point{};
  }
};

/// Collective: executes the whole batch in one sweep (one probe exchange,
/// one fused scan, one candidate merge, one summary reduction).  Results
/// are identical on every rank, bit-identical for any processor count or
/// row partition.  Throws InvalidArgument (collectively) on malformed
/// queries or an unknown doc id.
std::vector<QueryResult> run_query_batch(ga::Context& ctx, const QueryInputs& inputs,
                                         std::span<const Query> queries);

/// Cancellable/deadline-aware variant: identical results when the sweep
/// completes; empty results (with `*control.cancelled` set) when it was
/// abandoned at a phase boundary.
std::vector<QueryResult> run_query_batch(ga::Context& ctx, const QueryInputs& inputs,
                                         std::span<const Query> queries,
                                         const BatchControl& control);

namespace detail {
/// Collective drill-down core shared by the free functions and Session:
/// re-clusters and re-projects an already-extracted local subset.
DrillDownResult drill_down_subset(ga::Context& ctx, const sig::SignatureSet& subset,
                                  cluster::KMeansConfig config);
}  // namespace detail

/// The gathered 2-D document landscape, replicated on every rank.
struct Landscape {
  std::size_t components = 2;
  std::vector<std::uint64_t> doc_ids;  ///< global document order
  std::vector<double> xy;              ///< interleaved, aligned with doc_ids
};

/// The serving handle: an opened model bundle plus the SPMD context all
/// queries run in.  All query methods are collective across the world
/// that opened the bundle and return identical results on every rank.
class Session {
 public:
  /// Collective: opens `bundle_path` under this world's processor count
  /// (rows are re-partitioned like checkpoint resume).  Throws
  /// FormatError on a corrupt bundle.
  static Session open(ga::Context& ctx, const std::filesystem::path& bundle_path);

  // ---- single queries --------------------------------------------------

  /// Top-k cosine neighbours of an M-vector probe.
  [[nodiscard]] std::vector<SimilarDoc> similar(std::span<const double> probe, std::size_t k);
  /// Top-k neighbours of document `doc_id` (itself excluded).  Throws
  /// InvalidArgument when the bundle holds no such document.
  [[nodiscard]] std::vector<SimilarDoc> similar(std::uint64_t doc_id, std::size_t k);
  /// Digest of one theme cluster.
  [[nodiscard]] ClusterSummary cluster_summary(int cluster,
                                               std::size_t num_representatives = 5);
  /// Re-clusters and re-projects one theme in isolation.
  [[nodiscard]] DrillDownResult drill_down(int cluster, const cluster::KMeansConfig& config);
  /// The full 2-D landscape, replicated on every rank.
  [[nodiscard]] Landscape landscape();

  // ---- the batched query plane ----------------------------------------

  /// Executes many heterogeneous queries in one collective sweep — the
  /// serving fast path (see run_query_batch).
  [[nodiscard]] std::vector<QueryResult> run_batch(std::span<const Query> queries);

  /// Cancellable/deadline-aware sweep (see BatchControl): empty results
  /// when the sweep was abandoned.
  [[nodiscard]] std::vector<QueryResult> run_batch(std::span<const Query> queries,
                                                   const BatchControl& control);

  /// Labels a drill-down's sub-clusters by their strongest signature
  /// dimensions, resolved through the bundle's topic-term vocabulary
  /// slice (the same rule the engine uses for the global theme labels).
  [[nodiscard]] std::vector<std::vector<std::string>> sub_theme_labels(
      const cluster::KMeansResult& clustering, std::size_t terms_per_cluster = 5) const;

  // ---- bundle accessors -------------------------------------------------

  [[nodiscard]] const engine::BundleView& bundle() const { return data_; }
  [[nodiscard]] std::uint64_t config_fingerprint() const { return data_.config_fingerprint; }
  [[nodiscard]] std::uint64_t num_documents() const { return data_.num_records; }
  /// Bundle generation counter (0 = full build, n+1 = delta over gen n).
  [[nodiscard]] std::uint64_t generation() const { return data_.generation.generation; }
  /// This bundle's lineage fingerprint (see engine::bundle_lineage).
  [[nodiscard]] std::uint64_t lineage() const { return data_.generation.lineage; }
  /// True when the last delta's drift crossed a configured threshold.
  [[nodiscard]] bool recluster_recommended() const {
    return data_.generation.recluster_recommended;
  }
  [[nodiscard]] std::size_t dimension() const { return data_.signatures.dimension; }
  [[nodiscard]] std::size_t num_clusters() const { return data_.clustering.centroids.rows(); }
  [[nodiscard]] const std::vector<std::vector<std::string>>& theme_labels() const {
    return data_.theme_labels;
  }
  [[nodiscard]] const std::vector<std::string>& topic_term_names() const {
    return data_.topic_term_names;
  }

 private:
  Session(ga::Context& ctx, engine::BundleView data);

  [[nodiscard]] QueryInputs inputs() const;

  ga::Context* ctx_;
  engine::BundleView data_;
  /// doc id → local signature row, built once: the batched plane's probe
  /// resolution must not rescan the rows per call.
  std::unordered_map<std::uint64_t, std::size_t> doc_index_;
  /// Squared norm of every local signature row, computed once: rows never
  /// change within a generation.
  std::vector<double> row_norms2_;
};

}  // namespace sva::query
