#include "sva/engine/checkpoint.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "sva/util/bytes.hpp"
#include "sva/util/error.hpp"

namespace sva::engine {

namespace {

constexpr char kMagic[8] = {'S', 'V', 'A', 'C', 'K', 'P', 'T', '1'};
// v2: the signature checkpoint carries the association matrix and the
// final checkpoint the padded PCA basis, so a resumed run exports
// bundles carrying the same frozen model as the original run.
// v3: the engine configuration (and so the fingerprint every stage file
// records) no longer carries the claim-ordering flag.
constexpr std::uint64_t kFormatVersion = 3;

const char* kStageFiles[] = {"ingest.svack", "signatures.svack", "cluster.svack",
                             "final.svack"};
const char* kStageNames[] = {"ingest", "signatures", "cluster", "final"};

void write_timings(ByteWriter& out, const ComponentTimings& t) {
  out.f64(t.scan);
  out.f64(t.index);
  out.f64(t.topic);
  out.f64(t.am);
  out.f64(t.docvec);
  out.f64(t.clusproj);
}

ComponentTimings read_timings(ByteReader& in) {
  ComponentTimings t;
  t.scan = in.f64();
  t.index = in.f64();
  t.topic = in.f64();
  t.am = in.f64();
  t.docvec = in.f64();
  t.clusproj = in.f64();
  return t;
}

/// Rank 0 reads the stage file; every rank parses the broadcast bytes, so
/// validation failures surface identically (and collectively) everywhere.
CheckpointFile load_stage_file(ga::Context& ctx, const std::filesystem::path& dir,
                               Stage stage, std::uint64_t config_fingerprint) {
  std::vector<std::uint8_t> bytes;
  if (ctx.rank() == 0) {
    bytes = SectionedFile::read_file_bytes(stage_path(dir, stage), "checkpoint");
  }
  ga::broadcast_bytes(ctx, bytes, 0);
  CheckpointFile file = CheckpointFile::parse(bytes);
  require_format(file.stage == stage, "checkpoint: file holds the wrong stage");
  require(file.config_fingerprint == config_fingerprint,
          "checkpoint: written under a different engine configuration; refusing to resume");
  return file;
}

/// This rank's record range under the stored per-document byte sizes.
std::pair<std::size_t, std::size_t> my_range(ga::Context& ctx,
                                             const std::vector<std::size_t>& record_sizes) {
  const auto parts = corpus::partition_sizes_by_bytes(record_sizes, ctx.nprocs());
  return parts[static_cast<std::size_t>(ctx.rank())];
}

}  // namespace

const char* stage_name(Stage stage) { return kStageNames[static_cast<int>(stage)]; }

std::optional<Stage> parse_stage(std::string_view name) {
  for (int s = 0; s < 4; ++s) {
    if (name == kStageNames[s]) return static_cast<Stage>(s);
  }
  return std::nullopt;
}

std::filesystem::path stage_path(const std::filesystem::path& dir, Stage stage) {
  return dir / kStageFiles[static_cast<int>(stage)];
}

void CheckpointFile::write(const std::filesystem::path& path) {
  sections_.tag = static_cast<std::uint64_t>(stage);
  sections_.fingerprint = config_fingerprint;
  sections_.write(path, kMagic, kFormatVersion);
}

CheckpointFile CheckpointFile::parse(std::span<const std::uint8_t> bytes) {
  CheckpointFile file;
  file.sections_ = SectionedFile::parse(bytes, kMagic, kFormatVersion, "checkpoint");
  require_format(file.sections_.tag < 4, "checkpoint: bad stage id");
  file.stage = static_cast<Stage>(file.sections_.tag);
  file.config_fingerprint = file.sections_.fingerprint;
  return file;
}

CheckpointFile CheckpointFile::read(const std::filesystem::path& path) {
  return parse(SectionedFile::read_file_bytes(path, "checkpoint"));
}

std::optional<Stage> last_completed_stage(const std::filesystem::path& dir) {
  std::optional<Stage> last;
  for (int s = 0; s < 4; ++s) {
    const auto stage = static_cast<Stage>(s);
    const auto path = stage_path(dir, stage);
    if (!std::filesystem::exists(path)) break;
    try {
      const CheckpointFile file = CheckpointFile::read(path);
      if (file.stage != stage) break;
    } catch (const Error&) {
      break;  // corrupt file ends the completed chain
    }
    last = stage;
  }
  return last;
}

// ======================= ingest stage ====================================

void save_ingest_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                            const IngestState& state, const ComponentTimings& timings,
                            std::uint64_t config_fingerprint) {
  // Gather the per-rank record streams; rank order == global doc order.
  ByteWriter my_records;
  std::vector<std::uint64_t> my_sizes;
  my_sizes.reserve(state.records.size());
  for (const auto& rec : state.records) {
    my_records.u64(rec.doc_id);
    my_records.u64(rec.raw_bytes);
    my_records.u64(rec.fields.size());
    for (const auto& f : rec.fields) {
      my_records.u64(static_cast<std::uint64_t>(f.type));
      my_records.u64(f.terms.size());
      for (const auto t : f.terms) my_records.u64(static_cast<std::uint64_t>(t));
    }
    my_sizes.push_back(rec.raw_bytes);
  }
  // Not const: the gathered stream is moved into the checkpoint section
  // so rank 0 never holds two copies of the tokenized corpus.
  auto all_records = ctx.gatherv(std::span<const std::uint8_t>(my_records.bytes), 0);
  my_records.bytes.clear();
  my_records.bytes.shrink_to_fit();
  const auto all_sizes = ctx.gatherv(std::span<const std::uint64_t>(my_sizes), 0);

  // Statistics are replicated reads of the global arrays (collective-free
  // one-sided gets; identical on every rank).
  const auto tf = state.stats.term_frequency.to_vector(ctx);
  const auto df = state.stats.doc_frequency.to_vector(ctx);

  if (ctx.rank() == 0) {
    CheckpointFile file;
    file.stage = Stage::kIngest;
    file.config_fingerprint = config_fingerprint;

    ByteWriter meta;
    meta.u64(state.num_records);
    meta.u64(state.num_terms);
    meta.u64(state.total_term_occurrences);
    meta.u64(state.shards_used);
    write_timings(meta, timings);
    file.add("meta", std::move(meta.bytes));

    ByteWriter vocab;
    vocab.u64(state.vocabulary->terms.size());
    for (const auto& t : state.vocabulary->terms) vocab.str(t);
    file.add("vocab", std::move(vocab.bytes));

    ByteWriter fields;
    fields.u64(state.field_type_names.size());
    for (const auto& f : state.field_type_names) fields.str(f);
    file.add("field_types", std::move(fields.bytes));

    ByteWriter sizes;
    sizes.u64(all_sizes.size());
    for (const auto s : all_sizes) sizes.u64(s);
    file.add("record_sizes", std::move(sizes.bytes));

    file.add("records", std::move(all_records));

    ByteWriter stats;
    stats.u64(tf.size());
    for (const auto v : tf) stats.u64(static_cast<std::uint64_t>(v));
    for (const auto v : df) stats.u64(static_cast<std::uint64_t>(v));
    file.add("stats", std::move(stats.bytes));

    ByteWriter lb;
    lb.u64(state.load_balance.busy_seconds.size());
    for (const auto b : state.load_balance.busy_seconds) lb.f64(b);
    for (const auto l : state.load_balance.loads_claimed) {
      lb.u64(static_cast<std::uint64_t>(l));
    }
    file.add("load_balance", std::move(lb.bytes));

    file.write(stage_path(dir, Stage::kIngest));
  }
  ctx.barrier();
}

IngestCheckpoint load_ingest_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                                        std::uint64_t config_fingerprint,
                                        bool for_recompute) {
  const CheckpointFile file =
      load_stage_file(ctx, dir, Stage::kIngest, config_fingerprint);
  IngestCheckpoint out;

  {
    ByteReader meta(file.section("meta"));
    out.state.num_records = meta.u64();
    out.state.num_terms = meta.u64();
    out.state.total_term_occurrences = meta.u64();
    out.state.shards_used = static_cast<std::size_t>(meta.u64());
    out.timings = read_timings(meta);
    meta.expect_done();
  }
  {
    ByteReader vocab(file.section("vocab"));
    const std::uint64_t n = vocab.u64();
    require_format(n == out.state.num_terms, "checkpoint: vocabulary size mismatch");
    auto v = std::make_shared<ga::Vocabulary>();
    v->terms.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v->terms.push_back(vocab.str());
    vocab.expect_done();
    require_format(std::adjacent_find(v->terms.begin(), v->terms.end(),
                                      std::greater_equal<>()) == v->terms.end(),
                   "checkpoint: vocabulary is not sorted and duplicate-free");
    out.state.vocabulary = std::move(v);
  }
  {
    ByteReader fields(file.section("field_types"));
    const std::uint64_t n = fields.u64();
    require_format(n <= (1u << 20), "checkpoint: implausible field-type count");
    for (std::uint64_t i = 0; i < n; ++i) out.state.field_type_names.push_back(fields.str());
    fields.expect_done();
  }
  {
    ByteReader sizes(file.section("record_sizes"));
    const std::uint64_t n = sizes.u64();
    require_format(n == out.state.num_records, "checkpoint: record size count mismatch");
    out.record_sizes.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      out.record_sizes.push_back(static_cast<std::size_t>(sizes.u64()));
    }
    sizes.expect_done();
  }
  {
    ByteReader lb(file.section("load_balance"));
    const std::uint64_t n = lb.u64();
    require_format(n <= (1u << 16), "checkpoint: implausible rank count");
    out.state.load_balance.busy_seconds.resize(static_cast<std::size_t>(n));
    for (auto& b : out.state.load_balance.busy_seconds) b = lb.f64();
    out.state.load_balance.loads_claimed.resize(static_cast<std::size_t>(n));
    for (auto& l : out.state.load_balance.loads_claimed) {
      l = static_cast<std::int64_t>(lb.u64());
    }
    lb.expect_done();
  }

  if (!for_recompute) return out;

  // ---- records: parse the global stream, keep this rank's slice -------
  const auto [begin, end] = my_range(ctx, out.record_sizes);
  {
    ByteReader records(file.section("records"));
    for (std::uint64_t i = 0; i < out.state.num_records; ++i) {
      text::ScannedRecord rec;
      rec.doc_id = records.u64();
      rec.raw_bytes = records.u64();
      const std::uint64_t nfields = records.u64();
      require_format(nfields <= (1u << 24), "checkpoint: implausible field count");
      rec.fields.resize(static_cast<std::size_t>(nfields));
      for (auto& f : rec.fields) {
        f.type = static_cast<std::int32_t>(records.u64());
        const std::uint64_t nterms = records.u64();
        require_format(nterms <= records.remaining() + 1,
                       "checkpoint: implausible term count");
        f.terms.resize(static_cast<std::size_t>(nterms));
        for (auto& t : f.terms) {
          t = static_cast<std::int64_t>(records.u64());
          require_format(t >= 0 && static_cast<std::uint64_t>(t) < out.state.num_terms,
                         "checkpoint: term id out of vocabulary range");
        }
      }
      if (i >= begin && i < end) out.state.records.push_back(std::move(rec));
    }
    records.expect_done();
  }

  // ---- term statistics back into global arrays -------------------------
  {
    ByteReader stats(file.section("stats"));
    const std::uint64_t n = stats.u64();
    require_format(n == out.state.num_terms, "checkpoint: statistics size mismatch");
    std::vector<std::int64_t> tf(static_cast<std::size_t>(n));
    for (auto& v : tf) v = static_cast<std::int64_t>(stats.u64());
    std::vector<std::int64_t> df(static_cast<std::size_t>(n));
    for (auto& v : df) v = static_cast<std::int64_t>(stats.u64());
    stats.expect_done();

    out.state.stats.num_terms = out.state.num_terms;
    out.state.stats.num_records = out.state.num_records;
    out.state.stats.total_occurrences = out.state.total_term_occurrences;
    out.state.stats.term_frequency = ga::GlobalArray<std::int64_t>::create(
        ctx, std::max<std::size_t>(static_cast<std::size_t>(n), 1));
    out.state.stats.doc_frequency = ga::GlobalArray<std::int64_t>::create(
        ctx, std::max<std::size_t>(static_cast<std::size_t>(n), 1));
    const auto block = out.state.stats.term_frequency.local_row_range(ctx);
    const std::size_t tb = std::min(block.first, static_cast<std::size_t>(n));
    const std::size_t te = std::min(block.second, static_cast<std::size_t>(n));
    if (te > tb) {
      out.state.stats.term_frequency.put(
          ctx, tb, std::span<const std::int64_t>(tf.data() + tb, te - tb));
      out.state.stats.doc_frequency.put(
          ctx, tb, std::span<const std::int64_t>(df.data() + tb, te - tb));
    }
    ctx.barrier();
  }
  return out;
}

// ======================= signature stage =================================

void save_signature_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                               const SignatureStageState& state,
                               const ComponentTimings& timings,
                               std::uint64_t config_fingerprint) {
  const auto& sigs = state.signatures;
  std::vector<std::uint8_t> null_bytes(sigs.is_null.size());
  for (std::size_t i = 0; i < sigs.is_null.size(); ++i) {
    null_bytes[i] = sigs.is_null[i] ? 1 : 0;
  }
  const auto all_ids = ctx.gatherv(std::span<const std::uint64_t>(sigs.doc_ids), 0);
  const auto all_nulls = ctx.gatherv(std::span<const std::uint8_t>(null_bytes), 0);
  const auto all_vecs = ctx.gatherv(
      std::span<const double>(sigs.docvecs.flat().data(), sigs.docvecs.flat().size()), 0);

  if (ctx.rank() == 0) {
    CheckpointFile file;
    file.stage = Stage::kSignatures;
    file.config_fingerprint = config_fingerprint;

    ByteWriter meta;
    meta.u64(sigs.dimension);
    meta.u64(static_cast<std::uint64_t>(state.signature_rounds));
    meta.u64(sigs.global_null_count);
    write_timings(meta, timings);
    meta.u64(state.null_fraction_per_round.size());
    for (const auto f : state.null_fraction_per_round) meta.f64(f);
    file.add("meta", std::move(meta.bytes));

    ByteWriter sel;
    const auto& s = state.selection;
    sel.u64(s.major_terms.size());
    for (const auto t : s.major_terms) sel.u64(static_cast<std::uint64_t>(t));
    for (const auto v : s.scores) sel.f64(v);
    for (const auto d : s.major_df) sel.u64(static_cast<std::uint64_t>(d));
    sel.u64(s.topic_terms.size());
    for (const auto t : s.topic_terms) sel.u64(static_cast<std::uint64_t>(t));
    file.add("selection", std::move(sel.bytes));

    ByteWriter am;
    am.u64(state.association.weights.rows());
    am.u64(state.association.weights.cols());
    am.raw(state.association.weights.flat().data(),
           state.association.weights.flat().size() * sizeof(double));
    file.add("association", std::move(am.bytes));

    ByteWriter rows;
    rows.u64(all_ids.size());
    rows.u64(sigs.dimension);
    for (const auto id : all_ids) rows.u64(id);
    rows.raw(all_nulls.data(), all_nulls.size());
    rows.raw(all_vecs.data(), all_vecs.size() * sizeof(double));
    file.add("signatures", std::move(rows.bytes));

    file.write(stage_path(dir, Stage::kSignatures));
  }
  ctx.barrier();
}

SignatureCheckpoint load_signature_checkpoint(ga::Context& ctx,
                                              const std::filesystem::path& dir,
                                              std::uint64_t config_fingerprint,
                                              const std::vector<std::size_t>& record_sizes) {
  const CheckpointFile file =
      load_stage_file(ctx, dir, Stage::kSignatures, config_fingerprint);
  SignatureCheckpoint out;

  {
    ByteReader meta(file.section("meta"));
    out.state.signatures.dimension = static_cast<std::size_t>(meta.u64());
    out.state.signature_rounds = static_cast<int>(meta.u64());
    out.state.signatures.global_null_count = meta.u64();
    out.timings = read_timings(meta);
    const std::uint64_t rounds = meta.u64();
    require_format(rounds <= (1u << 16), "checkpoint: implausible round count");
    for (std::uint64_t i = 0; i < rounds; ++i) {
      out.state.null_fraction_per_round.push_back(meta.f64());
    }
    meta.expect_done();
  }
  {
    ByteReader sel(file.section("selection"));
    auto& s = out.state.selection;
    const std::uint64_t n = sel.u64();
    require_format(n <= (1u << 28), "checkpoint: implausible selection size");
    s.major_terms.resize(static_cast<std::size_t>(n));
    for (auto& t : s.major_terms) t = static_cast<std::int64_t>(sel.u64());
    s.scores.resize(static_cast<std::size_t>(n));
    for (auto& v : s.scores) v = sel.f64();
    s.major_df.resize(static_cast<std::size_t>(n));
    for (auto& d : s.major_df) d = static_cast<std::int64_t>(sel.u64());
    const std::uint64_t m = sel.u64();
    require_format(m <= n, "checkpoint: topic terms exceed major terms");
    s.topic_terms.resize(static_cast<std::size_t>(m));
    for (auto& t : s.topic_terms) t = static_cast<std::int64_t>(sel.u64());
    sel.expect_done();
    for (std::size_t i = 0; i < s.major_terms.size(); ++i) s.major_index[s.major_terms[i]] = i;
    for (std::size_t i = 0; i < s.topic_terms.size(); ++i) s.topic_index[s.topic_terms[i]] = i;
  }
  {
    ByteReader am(file.section("association"));
    const std::uint64_t rows = am.u64();
    const std::uint64_t cols = am.u64();
    require_format(rows == out.state.selection.major_terms.size(),
                   "checkpoint: association rows disagree with the selection");
    require_format(cols == out.state.signatures.dimension,
                   "checkpoint: association columns disagree with the dimension");
    out.state.association.weights =
        Matrix(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    am.raw(out.state.association.weights.flat().data(),
           out.state.association.weights.flat().size() * sizeof(double));
    am.expect_done();
  }
  {
    ByteReader rows(file.section("signatures"));
    const std::uint64_t n = rows.u64();
    const std::uint64_t dim = rows.u64();
    require_format(n == record_sizes.size(), "checkpoint: signature row count mismatch");
    require_format(dim == out.state.signatures.dimension,
                   "checkpoint: signature dimension mismatch");
    std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
    for (auto& id : ids) id = rows.u64();
    std::vector<std::uint8_t> nulls(static_cast<std::size_t>(n));
    rows.raw(nulls.data(), nulls.size());
    require_format(rows.remaining() ==
                       static_cast<std::size_t>(n) * static_cast<std::size_t>(dim) *
                           sizeof(double),
                   "checkpoint: signature matrix size mismatch");

    const auto [begin, end] = my_range(ctx, record_sizes);
    const std::size_t mine = end > begin ? end - begin : 0;
    auto& sigs = out.state.signatures;
    sigs.docvecs = Matrix(mine, static_cast<std::size_t>(dim));
    sigs.doc_ids.assign(ids.begin() + static_cast<std::ptrdiff_t>(begin),
                        ids.begin() + static_cast<std::ptrdiff_t>(end));
    sigs.is_null.resize(mine);
    for (std::size_t i = 0; i < mine; ++i) sigs.is_null[i] = nulls[begin + i] != 0;
    // Fixed-stride rows: jump straight to this rank's slice.
    const std::size_t row_bytes = static_cast<std::size_t>(dim) * sizeof(double);
    rows.skip(begin * row_bytes);
    if (mine > 0) rows.raw(sigs.docvecs.flat().data(), mine * row_bytes);
    rows.skip((static_cast<std::size_t>(n) - end) * row_bytes);
    rows.expect_done();
  }
  return out;
}

// ======================= cluster stage ===================================

void save_cluster_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                             const ClusterStageState& state, const ComponentTimings& timings,
                             std::uint64_t config_fingerprint) {
  const auto all_assignment =
      ctx.gatherv(std::span<const std::int32_t>(state.clustering.assignment), 0);

  if (ctx.rank() == 0) {
    CheckpointFile file;
    file.stage = Stage::kCluster;
    file.config_fingerprint = config_fingerprint;

    const auto& c = state.clustering;
    ByteWriter meta;
    meta.u64(static_cast<std::uint64_t>(c.iterations));
    meta.f64(c.inertia);
    meta.u64(c.centroids.rows());
    meta.u64(c.centroids.cols());
    write_timings(meta, timings);
    file.add("meta", std::move(meta.bytes));

    ByteWriter centroids;
    centroids.raw(c.centroids.flat().data(), c.centroids.flat().size() * sizeof(double));
    file.add("centroids", std::move(centroids.bytes));

    ByteWriter sizes;
    sizes.u64(c.cluster_sizes.size());
    for (const auto s : c.cluster_sizes) sizes.u64(static_cast<std::uint64_t>(s));
    file.add("sizes", std::move(sizes.bytes));

    ByteWriter assignment;
    assignment.u64(all_assignment.size());
    for (const auto a : all_assignment) assignment.u64(static_cast<std::uint64_t>(a));
    file.add("assignment", std::move(assignment.bytes));

    file.write(stage_path(dir, Stage::kCluster));
  }
  ctx.barrier();
}

ClusterCheckpoint load_cluster_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                                          std::uint64_t config_fingerprint,
                                          const std::vector<std::size_t>& record_sizes) {
  const CheckpointFile file =
      load_stage_file(ctx, dir, Stage::kCluster, config_fingerprint);
  ClusterCheckpoint out;
  auto& c = out.state.clustering;

  std::uint64_t k = 0;
  std::uint64_t dim = 0;
  {
    ByteReader meta(file.section("meta"));
    c.iterations = static_cast<int>(meta.u64());
    c.inertia = meta.f64();
    k = meta.u64();
    dim = meta.u64();
    out.timings = read_timings(meta);
    meta.expect_done();
    require_format(k <= (1u << 24) && dim <= (1u << 24),
                   "checkpoint: implausible centroid shape");
  }
  {
    ByteReader centroids(file.section("centroids"));
    c.centroids = Matrix(static_cast<std::size_t>(k), static_cast<std::size_t>(dim));
    require_format(centroids.remaining() ==
                       c.centroids.flat().size() * sizeof(double),
                   "checkpoint: centroid matrix size mismatch");
    centroids.raw(c.centroids.flat().data(), c.centroids.flat().size() * sizeof(double));
    centroids.expect_done();
  }
  {
    ByteReader sizes(file.section("sizes"));
    const std::uint64_t n = sizes.u64();
    require_format(n == k, "checkpoint: cluster size count mismatch");
    c.cluster_sizes.resize(static_cast<std::size_t>(n));
    for (auto& s : c.cluster_sizes) s = static_cast<std::int64_t>(sizes.u64());
    sizes.expect_done();
  }
  {
    ByteReader assignment(file.section("assignment"));
    const std::uint64_t n = assignment.u64();
    require_format(n == record_sizes.size(), "checkpoint: assignment count mismatch");
    std::vector<std::int32_t> all(static_cast<std::size_t>(n));
    for (auto& a : all) {
      const std::uint64_t v = assignment.u64();
      require_format(v < k, "checkpoint: assignment outside cluster range");
      a = static_cast<std::int32_t>(v);
    }
    assignment.expect_done();
    const auto [begin, end] = my_range(ctx, record_sizes);
    c.assignment.assign(all.begin() + static_cast<std::ptrdiff_t>(begin),
                        all.begin() + static_cast<std::ptrdiff_t>(end));
    if (ctx.rank() == 0) out.all_assignment = std::move(all);
  }
  return out;
}

// ======================= final stage =====================================

void save_final_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                           const ProjectionStageState& state, const ComponentTimings& timings,
                           std::uint64_t config_fingerprint) {
  if (ctx.rank() == 0) {
    CheckpointFile file;
    file.stage = Stage::kFinal;
    file.config_fingerprint = config_fingerprint;

    ByteWriter meta;
    meta.u64(state.projection.components);
    write_timings(meta, timings);
    file.add("meta", std::move(meta.bytes));

    ByteWriter labels;
    labels.u64(state.theme_labels.size());
    for (const auto& cluster_labels : state.theme_labels) {
      labels.u64(cluster_labels.size());
      for (const auto& l : cluster_labels) labels.str(l);
    }
    file.add("labels", std::move(labels.bytes));

    ByteWriter proj;
    proj.u64(state.projection.all_doc_ids.size());
    for (const auto id : state.projection.all_doc_ids) proj.u64(id);
    proj.raw(state.projection.all_xy.data(), state.projection.all_xy.size() * sizeof(double));
    file.add("projection", std::move(proj.bytes));

    ByteWriter pca;
    pca.u64(state.pca.mean.size());
    pca.raw(state.pca.mean.data(), state.pca.mean.size() * sizeof(double));
    pca.u64(state.pca.components.rows());
    pca.u64(state.pca.components.cols());
    pca.raw(state.pca.components.flat().data(),
            state.pca.components.flat().size() * sizeof(double));
    pca.u64(state.pca.eigenvalues.size());
    pca.raw(state.pca.eigenvalues.data(), state.pca.eigenvalues.size() * sizeof(double));
    file.add("pca", std::move(pca.bytes));

    file.write(stage_path(dir, Stage::kFinal));
  }
  ctx.barrier();
}

FinalCheckpoint load_final_checkpoint(ga::Context& ctx, const std::filesystem::path& dir,
                                      std::uint64_t config_fingerprint,
                                      const std::vector<std::size_t>& record_sizes) {
  const CheckpointFile file =
      load_stage_file(ctx, dir, Stage::kFinal, config_fingerprint);
  FinalCheckpoint out;

  {
    ByteReader meta(file.section("meta"));
    out.state.projection.components = static_cast<std::size_t>(meta.u64());
    out.timings = read_timings(meta);
    meta.expect_done();
    require_format(out.state.projection.components >= 2 &&
                       out.state.projection.components <= 3,
                   "checkpoint: implausible projection components");
  }
  {
    ByteReader labels(file.section("labels"));
    const std::uint64_t k = labels.u64();
    require_format(k <= (1u << 24), "checkpoint: implausible label count");
    out.state.theme_labels.resize(static_cast<std::size_t>(k));
    for (auto& cluster_labels : out.state.theme_labels) {
      const std::uint64_t n = labels.u64();
      require_format(n <= (1u << 16), "checkpoint: implausible label list");
      for (std::uint64_t i = 0; i < n; ++i) cluster_labels.push_back(labels.str());
    }
    labels.expect_done();
  }
  {
    ByteReader proj(file.section("projection"));
    const std::uint64_t n = proj.u64();
    require_format(n == record_sizes.size(), "checkpoint: projection row count mismatch");
    const std::size_t comps = out.state.projection.components;
    std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
    for (auto& id : ids) id = proj.u64();
    std::vector<double> xy(static_cast<std::size_t>(n) * comps);
    require_format(proj.remaining() == xy.size() * sizeof(double),
                   "checkpoint: projection coordinate size mismatch");
    proj.raw(xy.data(), xy.size() * sizeof(double));
    proj.expect_done();

    const auto [begin, end] = my_range(ctx, record_sizes);
    out.state.projection.local_doc_ids.assign(
        ids.begin() + static_cast<std::ptrdiff_t>(begin),
        ids.begin() + static_cast<std::ptrdiff_t>(end));
    out.state.projection.local_xy.assign(
        xy.begin() + static_cast<std::ptrdiff_t>(begin * comps),
        xy.begin() + static_cast<std::ptrdiff_t>(end * comps));
    if (ctx.rank() == 0) {
      out.state.projection.all_doc_ids = std::move(ids);
      out.state.projection.all_xy = std::move(xy);
    }
  }
  {
    ByteReader pca(file.section("pca"));
    auto& p = out.state.pca;
    const std::uint64_t mean_n = pca.u64();
    require_format(mean_n <= (1u << 24), "checkpoint: implausible PCA mean size");
    p.mean.resize(static_cast<std::size_t>(mean_n));
    pca.raw(p.mean.data(), p.mean.size() * sizeof(double));
    const std::uint64_t comp_rows = pca.u64();
    const std::uint64_t comp_cols = pca.u64();
    require_format(comp_rows <= 3 && comp_cols <= (1u << 24),
                   "checkpoint: implausible PCA component shape");
    p.components =
        Matrix(static_cast<std::size_t>(comp_rows), static_cast<std::size_t>(comp_cols));
    pca.raw(p.components.flat().data(), p.components.flat().size() * sizeof(double));
    const std::uint64_t n_eigen = pca.u64();
    require_format(n_eigen == comp_rows,
                   "checkpoint: eigenvalue count disagrees with components");
    p.eigenvalues.resize(static_cast<std::size_t>(n_eigen));
    pca.raw(p.eigenvalues.data(), p.eigenvalues.size() * sizeof(double));
    pca.expect_done();
  }
  return out;
}

}  // namespace sva::engine
