#include "sva/query/session.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sva/cluster/pca.hpp"
#include "sva/cluster/projection.hpp"
#include "sva/fault/fault.hpp"
#include "sva/ga/repro_sum.hpp"
#include "sva/util/error.hpp"

namespace sva::query {

namespace {

/// One candidate of the merged exchange, tagged with its batch slot.
/// `score` is the cosine similarity for similarity queries and the
/// squared centroid distance for summary representatives.
struct TaggedCandidate {
  std::uint32_t query = 0;
  std::uint32_t pad = 0;
  std::uint64_t doc_id = 0;
  double score = 0.0;
};

/// Similarity ordering: descending cosine, ascending doc id on ties —
/// a total order, so merged results are partition-independent.
bool better_hit(const TaggedCandidate& a, const TaggedCandidate& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc_id < b.doc_id;
}

/// Representative ordering: ascending distance, ascending doc id.
bool closer_rep(const TaggedCandidate& a, const TaggedCandidate& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.doc_id < b.doc_id;
}

bool is_similarity(Query::Kind kind) { return kind != Query::Kind::kClusterSummary; }

/// Offers `c` to `heap`, which keeps the `k` best candidates under the
/// total order `cmp` with the worst kept one at its front.  Because the
/// order is total, the kept set is exactly the top k however the rows
/// arrive.  `k == 0` keeps nothing.
template <typename Cmp>
void keep_top(std::vector<TaggedCandidate>& heap, std::size_t k, const TaggedCandidate& c,
              Cmp cmp) {
  if (k == 0) return;
  if (heap.size() < k) {
    heap.push_back(c);
    std::push_heap(heap.begin(), heap.end(), cmp);
  } else if (cmp(c, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    heap.back() = c;
    std::push_heap(heap.begin(), heap.end(), cmp);
  }
}

/// Squared norm of every row, accumulated in cosine_similarity's element
/// order so each score stays bit-identical to the one-query path.
std::vector<double> row_norms2(const sig::SignatureSet& sigs) {
  std::vector<double> norms(sigs.doc_ids.size(), 0.0);
  for (std::size_t i = 0; i < norms.size(); ++i) {
    const auto row = sigs.docvecs.row(i);
    double na = 0.0;
    for (std::size_t d = 0; d < row.size(); ++d) na += row[d] * row[d];
    norms[i] = na;
  }
  return norms;
}

/// Collective cancellation poll: every rank folds its local view of the
/// cancel flag / deadline through an allreduce, so all ranks take the
/// same branch — a rank abandoning a sweep alone would wedge the world.
bool sweep_abandoned(ga::Context& ctx, const BatchControl& control) {
  int flag = 0;
  if (control.cancel != nullptr && control.cancel->load(std::memory_order_acquire)) {
    flag = 1;
  }
  if (control.deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= control.deadline) {
    flag = 1;
  }
  flag = ctx.allreduce_max(flag);
  if (flag != 0 && control.cancelled != nullptr) {
    control.cancelled->store(true, std::memory_order_release);
  }
  return flag != 0;
}

}  // namespace

std::vector<QueryResult> run_query_batch(ga::Context& ctx, const QueryInputs& inputs,
                                         std::span<const Query> queries) {
  return run_query_batch(ctx, inputs, queries, BatchControl{});
}

std::vector<QueryResult> run_query_batch(ga::Context& ctx, const QueryInputs& in,
                                         std::span<const Query> queries,
                                         const BatchControl& control) {
  require(in.signatures != nullptr, "run_query_batch: signatures are required");
  const sig::SignatureSet& sigs = *in.signatures;
  const std::size_t dim = sigs.dimension;

  // ---- validation (queries are replicated, so every rank agrees) -------
  bool any_doc_probe = false;
  std::size_t num_summaries = 0;
  for (const Query& q : queries) {
    switch (q.kind) {
      case Query::Kind::kSimilarByProbe:
        require(q.k >= 1, "query: k must be >= 1");
        require(q.probe.size() == dim, "query: probe dimension mismatch");
        break;
      case Query::Kind::kSimilarByDoc:
        require(q.k >= 1, "query: k must be >= 1");
        any_doc_probe = true;
        break;
      case Query::Kind::kClusterSummary:
        require(in.assignment != nullptr && in.clustering != nullptr,
                "query: cluster summaries need clustering products");
        require(in.assignment->size() == sigs.doc_ids.size(),
                "query: assignment/signatures mismatch");
        require(q.cluster >= 0 && static_cast<std::size_t>(q.cluster) <
                                      in.clustering->centroids.rows(),
                "query: cluster id out of range");
        ++num_summaries;
        break;
    }
  }
  if (queries.empty()) return {};
  if (!control.inert() && sweep_abandoned(ctx, control)) return {};

  // ---- one exchange resolves every document probe ----------------------
  // Each rank contributes the signature rows it owns as (slot, row...)
  // runs; after the allgatherv every rank holds every probe.  A doc id
  // nobody owns surfaces as an unresolved slot on every rank, so the
  // throw is collective.
  std::vector<std::vector<double>> probes(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    if (queries[qi].kind == Query::Kind::kSimilarByProbe) probes[qi] = queries[qi].probe;
  }
  if (any_doc_probe) {
    std::unordered_map<std::uint64_t, std::size_t> local_index;
    const std::unordered_map<std::uint64_t, std::size_t>* row_of = in.doc_index;
    if (row_of == nullptr) {
      local_index.reserve(sigs.doc_ids.size());
      for (std::size_t i = 0; i < sigs.doc_ids.size(); ++i) {
        local_index.emplace(sigs.doc_ids[i], i);
      }
      row_of = &local_index;
    }

    std::vector<double> contrib;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      if (queries[qi].kind != Query::Kind::kSimilarByDoc) continue;
      const auto it = row_of->find(queries[qi].doc_id);
      if (it == row_of->end()) continue;
      contrib.push_back(static_cast<double>(qi));
      const auto row = sigs.docvecs.row(it->second);
      contrib.insert(contrib.end(), row.begin(), row.end());
    }
    const auto merged = ctx.allgatherv(std::span<const double>(contrib));
    const std::size_t stride = 1 + dim;
    require(merged.size() % stride == 0, "query: malformed probe exchange");
    for (std::size_t pos = 0; pos < merged.size(); pos += stride) {
      const auto qi = static_cast<std::size_t>(merged[pos]);
      require(qi < queries.size(), "query: malformed probe exchange");
      probes[qi].assign(merged.begin() + static_cast<std::ptrdiff_t>(pos + 1),
                        merged.begin() + static_cast<std::ptrdiff_t>(pos + stride));
    }
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      if (queries[qi].kind == Query::Kind::kSimilarByDoc && probes[qi].empty()) {
        throw InvalidArgument("query: unknown doc id " + std::to_string(queries[qi].doc_id));
      }
    }
  }
  if (!control.inert() && sweep_abandoned(ctx, control)) return {};

  // ---- one fused per-rank scan ------------------------------------------
  // Probe and row norms are hoisted (accumulated in the same element
  // order as cosine_similarity, so each score is bit-identical to the
  // classic one-query path); each signature row is read once for the
  // whole batch, and each query keeps only its local top-k.
  struct ProbeRef {
    std::size_t query = 0;
    const double* vec = nullptr;
    double norm2 = 0.0;
    bool exclude = false;
    std::uint64_t exclude_doc = 0;
  };
  std::vector<ProbeRef> probe_list;
  struct SummaryRef {
    std::size_t query = 0;
    std::size_t slot = 0;  ///< index into the summary-only accumulators
    int cluster = -1;
  };
  std::vector<SummaryRef> summary_list;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    if (is_similarity(q.kind)) {
      ProbeRef ref;
      ref.query = qi;
      ref.vec = probes[qi].data();
      for (std::size_t d = 0; d < dim; ++d) ref.norm2 += ref.vec[d] * ref.vec[d];
      ref.exclude = q.kind == Query::Kind::kSimilarByDoc;
      ref.exclude_doc = q.doc_id;
      probe_list.push_back(ref);
    } else {
      summary_list.push_back({qi, summary_list.size(), q.cluster});
    }
  }

  std::vector<double> local_norms;
  const std::vector<double>* norms = in.row_norms2;
  if (norms == nullptr && !probe_list.empty()) {
    local_norms = row_norms2(sigs);
    norms = &local_norms;
  }

  std::vector<std::vector<TaggedCandidate>> local(queries.size());
  std::vector<std::int64_t> members(num_summaries, 0);
  // Cosines lie in [-1, 1]: the fixed-point bank makes the cohesion sum
  // independent of the row partition, the keystone of the Session-vs-
  // free-function bit-identity contract.
  ga::ReproducibleSum cohesion(std::max<std::size_t>(num_summaries, 1), 1.0);

  for (std::size_t i = 0; i < sigs.doc_ids.size(); ++i) {
    const auto row = sigs.docvecs.row(i);
    if (!probe_list.empty() && !sigs.is_null[i]) {
      const double na = (*norms)[i];
      for (const ProbeRef& pr : probe_list) {
        if (pr.exclude && sigs.doc_ids[i] == pr.exclude_doc) continue;
        double dot = 0.0;
        for (std::size_t d = 0; d < dim; ++d) dot += row[d] * pr.vec[d];
        const double sim =
            (na <= 0.0 || pr.norm2 <= 0.0) ? 0.0 : dot / std::sqrt(na * pr.norm2);
        keep_top(local[pr.query], queries[pr.query].k,
                 {static_cast<std::uint32_t>(pr.query), 0, sigs.doc_ids[i], sim}, better_hit);
      }
    }
    for (const SummaryRef& sr : summary_list) {
      if ((*in.assignment)[i] != sr.cluster) continue;
      ++members[sr.slot];
      const auto centroid =
          in.clustering->centroids.row(static_cast<std::size_t>(sr.cluster));
      cohesion.add(sr.slot, cosine_similarity(row, centroid));
      double d2 = 0.0;
      for (std::size_t d = 0; d < row.size(); ++d) {
        const double diff = row[d] - centroid[d];
        d2 += diff * diff;
      }
      keep_top(local[sr.query], queries[sr.query].k,
               {static_cast<std::uint32_t>(sr.query), 0, sigs.doc_ids[i], d2}, closer_rep);
    }
  }

  if (!control.inert() && sweep_abandoned(ctx, control)) return {};

  // ---- one merge of every query's local top-k ---------------------------
  std::vector<TaggedCandidate> packed;
  for (const auto& kept : local) packed.insert(packed.end(), kept.begin(), kept.end());
  const auto merged = ctx.allgatherv(std::span<const TaggedCandidate>(packed));
  std::vector<std::vector<TaggedCandidate>> buckets(queries.size());
  for (const TaggedCandidate& c : merged) buckets[c.query].push_back(c);

  // ---- summary reductions (one integer + one fixed-point allreduce) ----
  std::vector<double> cohesion_sums;
  if (num_summaries > 0) {
    ctx.allreduce_sum(members.data(), members.size());
    cohesion_sums = cohesion.allreduce_sum(ctx);
  }

  // ---- assemble ---------------------------------------------------------
  std::vector<QueryResult> results(queries.size());
  std::size_t slot = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    auto& bucket = buckets[qi];
    QueryResult& out = results[qi];
    out.kind = q.kind;
    if (is_similarity(q.kind)) {
      std::sort(bucket.begin(), bucket.end(), better_hit);
      if (bucket.size() > q.k) bucket.resize(q.k);
      out.hits.reserve(bucket.size());
      for (const auto& c : bucket) out.hits.push_back({c.doc_id, c.score});
    } else {
      std::sort(bucket.begin(), bucket.end(), closer_rep);
      if (bucket.size() > q.k) bucket.resize(q.k);
      ClusterSummary& s = out.summary;
      s.cluster = q.cluster;
      s.size = in.clustering->cluster_sizes[static_cast<std::size_t>(q.cluster)];
      if (in.theme_labels != nullptr &&
          static_cast<std::size_t>(q.cluster) < in.theme_labels->size()) {
        s.top_terms = (*in.theme_labels)[static_cast<std::size_t>(q.cluster)];
      }
      s.cohesion = members[slot] > 0
                       ? cohesion_sums[slot] / static_cast<double>(members[slot])
                       : 0.0;
      s.representatives.reserve(bucket.size());
      for (const auto& c : bucket) s.representatives.push_back(c.doc_id);
      ++slot;
    }
  }
  return results;
}

namespace detail {

DrillDownResult drill_down_subset(ga::Context& ctx, const sig::SignatureSet& subset,
                                  cluster::KMeansConfig config) {
  DrillDownResult result;
  result.subset_size = static_cast<std::uint64_t>(
      ctx.allreduce_sum(static_cast<std::int64_t>(subset.doc_ids.size())));
  require(result.subset_size >= 1, "drill_down: empty subset");

  // Clamp k to the subset size so tiny selections still work.
  config.k = std::max<std::size_t>(
      1, std::min<std::size_t>(config.k, static_cast<std::size_t>(result.subset_size)));

  result.clustering = cluster::kmeans_cluster(ctx, subset.docvecs, config);

  // Fresh axes for the subset: PCA over its own centroids.
  const auto pca = cluster::pca_fit(result.clustering.centroids, 2);
  result.projection = cluster::project_documents(ctx, subset.docvecs, subset.doc_ids, pca);
  return result;
}

}  // namespace detail

// ===== Session ==========================================================

Session Session::open(ga::Context& ctx, const std::filesystem::path& bundle_path) {
  fault::point(fault::sites::kSessionOpen);
  return Session(ctx, engine::load_bundle(ctx, bundle_path));
}

Session::Session(ga::Context& ctx, engine::BundleView data)
    : ctx_(&ctx), data_(std::move(data)) {
  doc_index_.reserve(data_.signatures.doc_ids.size());
  for (std::size_t i = 0; i < data_.signatures.doc_ids.size(); ++i) {
    doc_index_.emplace(data_.signatures.doc_ids[i], i);
  }
  row_norms2_ = row_norms2(data_.signatures);
}

QueryInputs Session::inputs() const {
  return {&data_.signatures, &data_.clustering.assignment, &data_.clustering,
          &data_.theme_labels, &doc_index_, &row_norms2_};
}

// The single-query methods run one-element batches through inputs() so
// they reuse the Session's prebuilt doc index (the free functions build
// theirs per call) — same core, identical bits either way.

std::vector<SimilarDoc> Session::similar(std::span<const double> probe, std::size_t k) {
  const Query query = Query::similar_probe({probe.begin(), probe.end()}, k);
  auto results = run_query_batch(*ctx_, inputs(), {&query, 1});
  return std::move(results.front().hits);
}

std::vector<SimilarDoc> Session::similar(std::uint64_t doc_id, std::size_t k) {
  const Query query = Query::similar_doc(doc_id, k);
  auto results = run_query_batch(*ctx_, inputs(), {&query, 1});
  return std::move(results.front().hits);
}

ClusterSummary Session::cluster_summary(int cluster, std::size_t num_representatives) {
  const Query query = Query::cluster_summary(cluster, num_representatives);
  auto results = run_query_batch(*ctx_, inputs(), {&query, 1});
  return std::move(results.front().summary);
}

DrillDownResult Session::drill_down(int cluster, const cluster::KMeansConfig& config) {
  return drill_down_cluster(*ctx_, data_.signatures, data_.clustering.assignment, cluster,
                            config);
}

Landscape Session::landscape() {
  Landscape out;
  out.components = data_.projection_components;
  out.doc_ids = ctx_->allgatherv(std::span<const std::uint64_t>(data_.projection_doc_ids));
  out.xy = ctx_->allgatherv(std::span<const double>(data_.projection_xy));
  return out;
}

std::vector<QueryResult> Session::run_batch(std::span<const Query> queries) {
  return run_query_batch(*ctx_, inputs(), queries);
}

std::vector<QueryResult> Session::run_batch(std::span<const Query> queries,
                                            const BatchControl& control) {
  return run_query_batch(*ctx_, inputs(), queries, control);
}

std::vector<std::vector<std::string>> Session::sub_theme_labels(
    const cluster::KMeansResult& clustering, std::size_t terms_per_cluster) const {
  const std::size_t k = clustering.centroids.rows();
  const std::size_t m = clustering.centroids.cols();
  require(m <= data_.topic_term_names.size(),
          "sub_theme_labels: clustering dimension exceeds the bundle's topic terms");
  std::vector<std::vector<std::string>> labels(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<std::size_t> dims(m);
    for (std::size_t j = 0; j < m; ++j) dims[j] = j;
    const auto centroid = clustering.centroids.row(c);
    std::sort(dims.begin(), dims.end(), [&](std::size_t a, std::size_t b) {
      if (centroid[a] != centroid[b]) return centroid[a] > centroid[b];
      return a < b;
    });
    const std::size_t take = std::min(terms_per_cluster, m);
    for (std::size_t j = 0; j < take; ++j) {
      labels[c].push_back(data_.topic_term_names[dims[j]]);
    }
  }
  return labels;
}

}  // namespace sva::query
