// Model bundle: one versioned on-disk artifact (SVABNDL1) holding
// everything the query layer needs to serve an analyzed corpus without
// the engine that produced it — knowledge signatures with doc ids and
// null flags, the k-means centroids/assignment, the 2-D projection
// coordinates, theme labels, the topic-term vocabulary slice (the string
// meaning of each signature dimension) and the engine-configuration
// fingerprint the products were computed under.
//
// Format version 2 adds bundle *generations*: every bundle carries a
// generation counter, the lineage fingerprint of the base generation it
// extends (0 for a gen-0 full build), its own lineage fingerprint (a
// self-check over the generation metadata — corruption of the parent
// link raises FormatError instead of silently re-rooting a chain), and
// the drift metrics the delta-ingest path measured against its base
// (inertia rise, cluster-size skew).  Version 2 also carries the frozen
// model itself — the major-term strings, the association matrix and the
// padded PCA basis, plus the full sorted vocabulary and the serialized
// engine configuration — so a later `engine::ingest_delta` can extend
// the bundle without the run that produced it.  Version 3 drops the
// claim-ordering flag from the serialized engine configuration.
//
// The paper's pipeline ends when rank 0 writes the projected coordinates;
// the ROADMAP's serving workload starts after that: build once, persist,
// answer many queries later.  The bundle is the handoff point.  It reuses
// the checkpoint's SectionedFile machinery (per-section + header FNV-1a
// checksums, temp-then-rename writes), so truncation or a bit flip
// anywhere raises FormatError instead of serving garbage.
//
// Both ends are collective and P-independent: export_bundle gathers every
// rank's row slices (rank 0 touches the disk); load_bundle broadcasts the
// image and re-partitions the rows for the *opening* world's processor
// count — a bundle written at P=4 serves at P=1 or P=8, and because every
// query reduction is order-invariant, the answers are bit-identical.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sva/engine/pipeline.hpp"

namespace sva::engine {

inline constexpr char kBundleMagic[8] = {'S', 'V', 'A', 'B', 'N', 'D', 'L', '1'};
inline constexpr std::uint64_t kBundleFormatVersion = 3;

/// Generation metadata carried by every bundle since version 2.  The
/// "generation" section stores these as fixed-width 8-byte words (not
/// varbyte), so the parent link lives at a stable offset.
struct GenerationInfo {
  std::uint64_t generation = 0;      ///< 0 = full build, n+1 = delta over gen n
  std::uint64_t parent_lineage = 0;  ///< lineage of the base generation (0 for gen 0)
  std::uint64_t lineage = 0;         ///< this bundle's lineage fingerprint
  std::uint64_t base_records = 0;    ///< records inherited from the base
  std::uint64_t new_records = 0;     ///< records this generation added
  // Drift vs the base generation (all 0 for gen 0).
  double inertia_rise = 0.0;    ///< per-doc inertia rise fraction
  double size_skew = 0.0;       ///< max(cluster size) / mean(cluster size)
  double size_skew_rise = 0.0;  ///< skew rise fraction vs the base
  // The thresholds the drift was judged against (recorded so the verdict
  // is reproducible from the artifact alone).
  double max_inertia_rise = 0.0;
  double max_size_skew_rise = 0.0;
  bool recluster_recommended = false;
};

/// The frozen analysis model a delta ingest reuses: major-term strings in
/// association-row order, the N×M association matrix, and the (padded)
/// PCA basis the projection coordinates were computed under.
struct BundleModel {
  std::vector<std::string> major_terms;
  Matrix association;  ///< N rows (major terms) × M cols (topic terms)
  cluster::PcaResult pca;
};

/// One rank's view of an opened bundle: row-sliced local products plus
/// the replicated analysis artifacts.  This is exactly what a
/// query::Session hangs its queries off.
struct BundleView {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t num_records = 0;
  std::uint64_t num_terms = 0;
  std::uint64_t total_term_occurrences = 0;
  int signature_rounds = 1;

  GenerationInfo generation;

  /// This rank's contiguous global row range [begin, end) under the
  /// bundle's stored partition weights.
  std::pair<std::size_t, std::size_t> row_range{0, 0};
  /// The stored global partition weights (per-document raw byte sizes).
  std::vector<std::size_t> weights;

  sig::SignatureSet signatures;      ///< local rows
  cluster::KMeansResult clustering;  ///< centroids/sizes replicated; assignment local
  std::vector<std::vector<std::string>> theme_labels;
  /// Vocabulary slice: the string label of each of the M signature
  /// dimensions (selection.topic_terms resolved through the vocabulary).
  std::vector<std::string> topic_term_names;

  std::size_t projection_components = 2;
  std::vector<std::uint64_t> projection_doc_ids;  ///< local slice
  std::vector<double> projection_xy;              ///< local slice, interleaved

  // Optional sections (absent from bundles exported out of synthetic
  // results that never held a model; `ingest_delta` requires them).
  bool has_model = false;
  BundleModel model;
  std::vector<std::string> vocabulary;     ///< full sorted term list (may be empty)
  std::vector<std::uint8_t> config_bytes;  ///< serialized EngineConfig (may be empty)
};

/// The full (rank-0, global) image a bundle file is written from.  Both
/// `export_bundle` and the delta-ingest path assemble one of these; the
/// shared writer keeps the two byte-identical for identical contents.
struct BundleData {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t num_records = 0;
  std::uint64_t num_terms = 0;
  std::uint64_t total_term_occurrences = 0;
  std::size_t dimension = 0;
  int signature_rounds = 1;
  std::uint64_t global_null_count = 0;

  std::vector<std::size_t> weights;  ///< empty → one unit per row

  std::vector<std::uint64_t> doc_ids;
  std::vector<std::uint8_t> null_flags;
  std::vector<double> signature_rows;  ///< num_records × dimension

  int iterations = 0;
  double inertia = 0.0;
  Matrix centroids;
  std::vector<std::int64_t> cluster_sizes;
  std::vector<std::int32_t> assignment;

  std::vector<std::vector<std::string>> theme_labels;
  std::vector<std::string> topic_term_names;

  std::size_t projection_components = 2;
  std::vector<std::uint64_t> projection_doc_ids;
  std::vector<double> projection_xy;

  GenerationInfo generation;  ///< lineage is computed by the writer

  std::vector<std::string> vocabulary;     ///< empty → section absent
  BundleModel model;                       ///< empty major_terms → section absent
  std::vector<std::uint8_t> config_bytes;  ///< empty → section absent
};

/// Lineage fingerprint of a generation: an FNV-1a chain over the parent
/// link, the generation counter and the merged corpus statistics.  Stored
/// in the bundle and recomputed on load — a mismatch (e.g. a corrupted
/// parent fingerprint) raises FormatError.
std::uint64_t bundle_lineage(const GenerationInfo& generation, std::uint64_t num_records,
                             std::uint64_t num_terms, std::uint64_t total_term_occurrences,
                             std::uint64_t global_null_count, double inertia);

/// Validates that `next` is the generation directly extending `base`:
/// the counter must advance by exactly one (anything else is a
/// generation counter rollback or gap) and `next`'s parent lineage must
/// equal `base`'s lineage (a delta bundle presented without its true
/// base fails here).  Throws FormatError with a named diagnostic.
void require_extends(const BundleView& base, const BundleView& next);

/// Serial (call on rank 0): computes `data.generation.lineage` and writes
/// the bundle file temp-then-rename.
void write_bundle_data(BundleData& data, const std::filesystem::path& path);

/// Collective: gathers the per-rank slices of `result` and writes the
/// bundle (rank 0 touches the disk).  `record_sizes` are the global
/// per-document raw byte sizes used as row-partition weights when the
/// bundle is reopened (read on rank 0; pass empty for uniform weights —
/// results are identical either way, only the load balance differs).
void export_bundle(ga::Context& ctx, const EngineResult& result,
                   std::uint64_t config_fingerprint, const std::filesystem::path& path,
                   std::span<const std::size_t> record_sizes = {});

/// Convenience overload: fingerprints `config` itself and embeds its
/// serialized form so the bundle can later be extended by
/// `engine::ingest_delta` without the original run.
void export_bundle(ga::Context& ctx, const EngineResult& result, const EngineConfig& config,
                   const std::filesystem::path& path,
                   std::span<const std::size_t> record_sizes = {});

/// Collective: rank 0 reads `path`, every rank parses the broadcast image
/// and keeps its slice of the rows under this world's processor count.
/// Throws FormatError on any corruption, sva::Error when the file cannot
/// be opened.
BundleView load_bundle(ga::Context& ctx, const std::filesystem::path& path);

}  // namespace sva::engine
