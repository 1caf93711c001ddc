#include "sva/engine/engine.hpp"

#include <utility>

#include "sva/engine/bundle.hpp"
#include "sva/engine/digest.hpp"
#include "sva/util/bytes.hpp"
#include "sva/util/error.hpp"

namespace sva::engine {

namespace {

ComponentTimings add_timings(const ComponentTimings& a, const ComponentTimings& b) {
  ComponentTimings out;
  out.scan = a.scan + b.scan;
  out.index = a.index + b.index;
  out.topic = a.topic + b.topic;
  out.am = a.am + b.am;
  out.docvec = a.docvec + b.docvec;
  out.clusproj = a.clusproj + b.clusproj;
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_engine_config(const EngineConfig& config) {
  ByteWriter w;
  const auto& tok = config.tokenizer;
  w.str(tok.delimiters);
  w.u64(tok.lowercase ? 1 : 0);
  w.u64(tok.min_length);
  w.u64(tok.max_length);
  w.u64(tok.drop_numeric ? 1 : 0);
  w.u64(tok.use_stopwords ? 1 : 0);
  w.u64(tok.extra_stopwords.size());
  for (const auto& s : tok.extra_stopwords) w.str(s);
  w.u64(tok.stem ? 1 : 0);

  const auto& idx = config.indexing;
  w.u64(static_cast<std::uint64_t>(idx.scheduling));
  w.u64(idx.chunk_fields);

  const auto& top = config.topicality;
  w.u64(top.num_major_terms);
  w.f64(top.topic_fraction);
  w.u64(static_cast<std::uint64_t>(top.min_doc_frequency));
  w.f64(top.max_df_fraction);

  w.u64(static_cast<std::uint64_t>(config.association.weighting));

  const auto& sig = config.signature;
  w.f64(sig.null_threshold);
  w.u64(sig.adaptive ? 1 : 0);
  w.f64(sig.max_null_fraction);
  w.f64(sig.growth_factor);
  w.u64(static_cast<std::uint64_t>(sig.max_rounds));

  w.u64(static_cast<std::uint64_t>(config.clustering));
  const auto& km = config.kmeans;
  w.u64(km.k);
  w.u64(static_cast<std::uint64_t>(km.max_iterations));
  w.f64(km.tolerance);
  w.u64(km.seed);
  w.u64(km.seed_sample_total);
  const auto& h = config.hierarchical;
  w.u64(static_cast<std::uint64_t>(h.linkage));
  w.u64(h.k);
  w.u64(h.min_k);
  w.u64(h.max_k);
  w.u64(h.seed_sample_total);

  w.u64(config.projection_components);
  w.u64(config.theme_label_terms);
  return std::move(w.bytes);
}

EngineConfig decode_engine_config(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  EngineConfig config;
  auto& tok = config.tokenizer;
  tok.delimiters = r.str();
  tok.lowercase = r.u64() != 0;
  tok.min_length = static_cast<std::size_t>(r.u64());
  tok.max_length = static_cast<std::size_t>(r.u64());
  tok.drop_numeric = r.u64() != 0;
  tok.use_stopwords = r.u64() != 0;
  const std::uint64_t n_stop = r.u64();
  require_format(n_stop <= (1u << 20), "engine config: implausible stopword count");
  tok.extra_stopwords.clear();
  tok.extra_stopwords.reserve(static_cast<std::size_t>(n_stop));
  for (std::uint64_t i = 0; i < n_stop; ++i) tok.extra_stopwords.push_back(r.str());
  tok.stem = r.u64() != 0;

  auto& idx = config.indexing;
  idx.scheduling = static_cast<ga::Scheduling>(r.u64());
  idx.chunk_fields = static_cast<std::size_t>(r.u64());

  auto& top = config.topicality;
  top.num_major_terms = static_cast<std::size_t>(r.u64());
  top.topic_fraction = r.f64();
  top.min_doc_frequency = static_cast<std::int64_t>(r.u64());
  top.max_df_fraction = r.f64();

  config.association.weighting = static_cast<sig::AssociationWeighting>(r.u64());

  auto& sig = config.signature;
  sig.null_threshold = r.f64();
  sig.adaptive = r.u64() != 0;
  sig.max_null_fraction = r.f64();
  sig.growth_factor = r.f64();
  sig.max_rounds = static_cast<int>(r.u64());

  config.clustering = static_cast<ClusteringBackend>(r.u64());
  auto& km = config.kmeans;
  km.k = static_cast<std::size_t>(r.u64());
  km.max_iterations = static_cast<int>(r.u64());
  km.tolerance = r.f64();
  km.seed = r.u64();
  km.seed_sample_total = static_cast<std::size_t>(r.u64());
  auto& h = config.hierarchical;
  h.linkage = static_cast<cluster::Linkage>(r.u64());
  h.k = static_cast<std::size_t>(r.u64());
  h.min_k = static_cast<std::size_t>(r.u64());
  h.max_k = static_cast<std::size_t>(r.u64());
  h.seed_sample_total = static_cast<std::size_t>(r.u64());

  config.projection_components = static_cast<std::size_t>(r.u64());
  config.theme_label_terms = static_cast<std::size_t>(r.u64());
  r.expect_done();
  return config;
}

std::uint64_t Engine::config_fingerprint(const EngineConfig& config) {
  const std::vector<std::uint8_t> bytes = encode_engine_config(config);
  return fnv1a64(bytes.data(), bytes.size());
}

std::optional<EngineResult> Engine::run(ga::Context& ctx, const corpus::CorpusReader& reader,
                                        const PipelineOptions& options) {
  const bool checkpoint = !options.checkpoint_dir.empty();
  require(!options.stop_after || checkpoint,
          "Engine::run: stop_after requires a checkpoint_dir");
  const std::uint64_t fp = config_fingerprint(config_);

  ga::StageTimer timer(ctx);
  IngestState ingest = ingest_sharded(ctx, reader, config_.tokenizer, config_.indexing,
                                      options.sharding, timer);
  if (checkpoint) {
    save_ingest_checkpoint(ctx, options.checkpoint_dir, ingest, fold_timings(timer), fp);
  }
  if (options.stop_after == Stage::kIngest) return std::nullopt;

  SignatureStageState sig_state = run_signature_stage(ctx, ingest, config_, timer);
  if (checkpoint) {
    save_signature_checkpoint(ctx, options.checkpoint_dir, sig_state, fold_timings(timer),
                              fp);
  }
  if (options.stop_after == Stage::kSignatures) return std::nullopt;

  ClusterStageState cluster_state = run_cluster_stage(ctx, sig_state, config_, timer);
  if (checkpoint) {
    save_cluster_checkpoint(ctx, options.checkpoint_dir, cluster_state, fold_timings(timer),
                            fp);
  }
  if (options.stop_after == Stage::kCluster) return std::nullopt;

  ProjectionStageState projection_state =
      run_projection_stage(ctx, ingest, sig_state, cluster_state, config_, timer);
  const ComponentTimings timings = fold_timings(timer);
  if (checkpoint) {
    save_final_checkpoint(ctx, options.checkpoint_dir, projection_state, timings, fp);
  }

  // Bundle export wants the global per-document raw byte sizes as the
  // row-partition weights; gather them before ingest is consumed.
  std::vector<std::size_t> record_sizes;
  if (!options.export_bundle.empty()) {
    std::vector<std::uint64_t> my_sizes;
    my_sizes.reserve(ingest.records.size());
    for (const auto& rec : ingest.records) my_sizes.push_back(rec.raw_bytes);
    const auto all_sizes = ctx.gatherv(std::span<const std::uint64_t>(my_sizes), 0);
    record_sizes.assign(all_sizes.begin(), all_sizes.end());
  }

  EngineResult result =
      assemble_result(std::move(ingest), std::move(sig_state), std::move(cluster_state),
                      std::move(projection_state), timings);
  if (!options.export_bundle.empty()) {
    export_bundle(ctx, result, config_, options.export_bundle, record_sizes);
  }
  return result;
}

EngineResult Engine::resume(ga::Context& ctx, const std::filesystem::path& checkpoint_dir,
                            const std::filesystem::path& export_bundle_path) {
  const std::uint64_t fp = config_fingerprint(config_);

  int last = -1;
  if (ctx.rank() == 0) {
    const auto stage = last_completed_stage(checkpoint_dir);
    last = stage ? static_cast<int>(*stage) : -1;
  }
  ctx.broadcast_value(last, 0);
  require(last >= 0,
          "Engine::resume: no usable checkpoint in " + checkpoint_dir.string());
  const auto last_stage = static_cast<Stage>(last);

  // The ingest state is always needed (vocabulary, counts, partition);
  // records and statistics only when stages 3-5 must be recomputed.
  IngestCheckpoint ingest =
      load_ingest_checkpoint(ctx, checkpoint_dir, fp, last_stage == Stage::kIngest);
  ComponentTimings base = ingest.timings;  // cumulative at the restored stage
  ga::StageTimer timer(ctx);               // recomputed stages accumulate here

  SignatureStageState sig_state;
  if (last_stage >= Stage::kSignatures) {
    SignatureCheckpoint restored =
        load_signature_checkpoint(ctx, checkpoint_dir, fp, ingest.record_sizes);
    sig_state = std::move(restored.state);
    base = restored.timings;
  } else {
    sig_state = run_signature_stage(ctx, ingest.state, config_, timer);
    save_signature_checkpoint(ctx, checkpoint_dir, sig_state,
                              add_timings(base, fold_timings(timer)), fp);
  }

  ClusterStageState cluster_state;
  std::vector<std::int32_t> restored_assignment;
  if (last_stage >= Stage::kCluster) {
    ClusterCheckpoint restored =
        load_cluster_checkpoint(ctx, checkpoint_dir, fp, ingest.record_sizes);
    cluster_state = std::move(restored.state);
    restored_assignment = std::move(restored.all_assignment);
    base = restored.timings;
  } else {
    cluster_state = run_cluster_stage(ctx, sig_state, config_, timer);
    save_cluster_checkpoint(ctx, checkpoint_dir, cluster_state,
                            add_timings(base, fold_timings(timer)), fp);
  }

  ProjectionStageState projection_state;
  ComponentTimings final_timings;
  if (last_stage >= Stage::kFinal) {
    FinalCheckpoint restored =
        load_final_checkpoint(ctx, checkpoint_dir, fp, ingest.record_sizes);
    projection_state = std::move(restored.state);
    projection_state.all_assignment = std::move(restored_assignment);
    final_timings = restored.timings;
  } else {
    projection_state =
        run_projection_stage(ctx, ingest.state, sig_state, cluster_state, config_, timer);
    final_timings = add_timings(base, fold_timings(timer));
    save_final_checkpoint(ctx, checkpoint_dir, projection_state, final_timings, fp);
  }

  EngineResult result =
      assemble_result(std::move(ingest.state), std::move(sig_state),
                      std::move(cluster_state), std::move(projection_state), final_timings);
  if (!export_bundle_path.empty()) {
    // The ingest checkpoint already carries the global byte sizes.
    export_bundle(ctx, result, config_, export_bundle_path, ingest.record_sizes);
  }
  return result;
}

}  // namespace sva::engine
