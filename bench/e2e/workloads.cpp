#include "workloads.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <type_traits>

#include "json.hpp"
#include "stats.hpp"
#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/corpus/zipf.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/delta.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/engine.hpp"
#include "sva/engine/stages.hpp"
#include "sva/ga/global_array.hpp"
#include "sva/query/session.hpp"
#include "sva/serve/server.hpp"
#include "sva/util/bytes.hpp"
#include "sva/util/rng.hpp"
#include "sva/util/timer.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
namespace corpus = sva::corpus;
namespace engine = sva::engine;
namespace ga = sva::ga;
using sva::WallTimer;
using sva::query::Query;
using sva::query::QueryResult;
using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;

// ---- the fixed workload shapes -------------------------------------------

constexpr int kSetupReps = 3;
constexpr int kBuildProcs = 4;
constexpr int kServeProcs = 2;
constexpr std::size_t kTrecShards = 4;
constexpr int kMinBuilds = 3;
constexpr double kUniformRate = 500.0;
constexpr double kLiveRate = 300.0;
// serve_live: the bundle holds the first 98% of the corpus; twelve
// ingests of a twelfth of the held-back 2% each land at even intervals,
// beside Zipf(0.8) document probes.  About 2/3 of reads miss the cache
// and ~6% wait behind an ingest, so the median is a miss and the p99 an
// ingest stall.  Zipf(1.1) with six ingests left ~57% hits and ~1.3%
// stalled: the median then sat 7 points from flipping between a hit and
// a miss, and the p99 where the stalled queries run out
// (README.md, "Workloads").
constexpr int kLiveIngests = 12;
constexpr double kLiveTailShare = 0.02;
constexpr double kLiveZipf = 0.8;
constexpr std::size_t kProbeQueries = 64;
constexpr std::size_t kClosedWindow = 32;
constexpr int kCapacitySlices = 8;
/// The open-loop dispatcher spins this long before each planned send.
constexpr double kSpinLead_s = 200e-6;

// RNG stream ids derived from --seed, one per independent input stream.
constexpr std::uint64_t kWarmupStream = 1;
constexpr std::uint64_t kWindowStream = 2;
constexpr std::uint64_t kClosedStream = 3;
constexpr std::uint64_t kProbeStream = 4;
constexpr std::uint64_t kSweepStream = 5;
constexpr std::uint64_t kWarmupArrivalStream = 6;
constexpr std::uint64_t kWindowArrivalStream = 7;

struct Scale {
  std::size_t pubmed_bytes;
  std::size_t trec_bytes;
  std::size_t serve_bytes;
  double serve_warmup_s;
  int sweep_reps;
  int barrier_reps;
  int collective_reps;
  int spawn_reps;
};

Scale scale_for(bool smoke) {
  if (smoke) return {1u << 20, 1u << 20, 1u << 20, 0.2, 10, 100, 10, 2};
  return {16u << 20, 12u << 20, 16u << 20, 2.0, 200, 2000, 200, 5};
}

ga::SpmdOptions spmd(int procs, ga::Backend backend) {
  ga::SpmdOptions o;
  o.nprocs = procs;
  o.backend = backend;
  return o;
}

corpus::CorpusSpec corpus_spec(corpus::CorpusKind kind, std::size_t bytes, std::uint64_t seed) {
  corpus::CorpusSpec spec = kind == corpus::CorpusKind::kPubMedLike
                                ? corpus::pubmed_like_spec(0, bytes)
                                : corpus::trec_like_spec(0, bytes);
  spec.seed = seed;
  return spec;
}

/// The configuration the repo's paper-figure benches use.
engine::EngineConfig engine_config() {
  engine::EngineConfig config;
  config.topicality.num_major_terms = 800;
  config.kmeans.k = 16;
  config.kmeans.max_iterations = 32;
  return config;
}

void add(Outcome& out, std::string name, double value, std::string unit) {
  out.metrics.push_back({std::move(name), value, std::move(unit)});
}

/// This process's peak RSS so far (ru_maxrss), in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Runs `fn` in a forked child process and waits for it; throws when the
/// child fails.  Returns the child's peak RSS in MiB, its own reaped
/// children (socket ranks) included.  The caller must be single-threaded.
/// The child leaves by _exit, so the parent's objects are not destroyed
/// twice.
///
/// Peak RSS is measured in a process that ran nothing else: a process that
/// has run earlier builds peaks ~15-30% higher or not, from run to run,
/// with whichever freed allocator arena each rank thread happens to reuse.
template <typename F>
double in_child_process(const char* what, F&& fn) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
  if (pid == 0) {
    int code = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::cerr << "sva_e2e: " << what << ": " << e.what() << std::endl;
      code = 1;
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::system_error(errno, std::generic_category(), "wait4");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(std::string(what) + " failed in its child process");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

std::string json_list(const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ',';
    s += json_number(values[i]);
  }
  return s + "]";
}

/// Removes the per-process scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(const Options& opt)
      : path_(opt.work_dir / ("tmp-" + opt.workload + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---- spans ----------------------------------------------------------------

/// Runs `fn` as one barrier-aligned span timed by rank 0: the ranks enter
/// together and the span closes once the slowest rank is done.  Without a
/// tracer it is a plain call, so untraced runs pay no extra barriers.
/// Every rank must pass the same tracer pointer (null or not).
template <typename F>
auto traced(ga::Context& ctx, Tracer* tracer, const char* name, F&& fn,
            std::int64_t request = -1) {
  if (tracer == nullptr) return fn();
  ctx.barrier();
  if (ctx.rank() == 0) tracer->open(name, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    ctx.barrier();
    if (ctx.rank() == 0) tracer->close();
  } else {
    auto result = fn();
    ctx.barrier();
    if (ctx.rank() == 0) tracer->close();
    return result;
  }
}

// ---- documents for Server::ingest ----------------------------------------

/// One line of the daemon's ingest format: the document's field texts.
std::string as_line(const corpus::RawDocument& doc) {
  std::string line;
  for (const auto& f : doc.fields) {
    if (!line.empty()) line += ' ';
    line += f.text;
  }
  std::replace(line.begin(), line.end(), '\n', ' ');
  std::replace(line.begin(), line.end(), '\r', ' ');
  return line;
}

void write_docs_file(const fs::path& path, const std::vector<corpus::RawDocument>& docs) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& d : docs) out << as_line(d) << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Parses a docs file the way Server::ingest documents it: one body-only
/// document per non-empty line, ids = positions.  The offline replay reads
/// the daemon's exact input this way.
corpus::SourceSet read_docs_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  corpus::SourceSet docs;
  std::string line;
  std::uint64_t seq = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    corpus::RawDocument doc;
    doc.id = seq++;
    doc.fields.push_back({"body", line});
    docs.add(std::move(doc));
  }
  return docs;
}

/// The last 1/300 of `docs` as the daemon's ingest format reads them: the
/// delta the traced ingest_delta adds to a bundle.
corpus::SourceSet delta_docs(const corpus::SourceSet& docs) {
  corpus::SourceSet out;
  const std::size_t count = std::max<std::size_t>(1, docs.size() / 300);
  for (std::size_t i = docs.size() - count; i < docs.size(); ++i) {
    corpus::RawDocument doc;
    doc.id = out.size();
    doc.fields.push_back({"body", as_line(docs[i])});
    out.add(std::move(doc));
  }
  return out;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// ---- queries ----------------------------------------------------------------

/// The serving mix: 3/4 "more like this" document probes, 1/4 theme
/// summaries.  Probes are uniform over the documents, or Zipf-skewed over
/// a seeded permutation of them (hot documents are not simply the first).
class QueryStream {
 public:
  QueryStream(std::uint64_t seed, std::uint64_t stream, std::uint64_t num_docs,
              std::size_t num_clusters, double zipf_s)
      : rng_(seed, stream), num_docs_(num_docs), num_clusters_(num_clusters) {
    if (zipf_s > 0.0) {
      zipf_.emplace(num_docs, zipf_s);
      perm_.resize(num_docs);
      for (std::uint64_t i = 0; i < num_docs; ++i) perm_[i] = i;
      for (std::uint64_t i = num_docs; i > 1; --i) {
        std::swap(perm_[i - 1], perm_[rng_.below(i)]);
      }
    }
  }

  Query next() {
    if (count_++ % 4 == 3) {
      return Query::cluster_summary(static_cast<int>(rng_.below(num_clusters_)), 5);
    }
    const std::uint64_t doc = zipf_ ? perm_[zipf_->sample(rng_)] : rng_.below(num_docs_);
    return Query::similar_doc(doc, 8);
  }

  std::vector<Query> take(std::size_t n) {
    std::vector<Query> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(next());
    return out;
  }

 private:
  sva::Xoshiro256 rng_;
  std::uint64_t num_docs_;
  std::size_t num_clusters_;
  std::optional<corpus::ZipfSampler> zipf_;
  std::vector<std::uint64_t> perm_;
  std::uint64_t count_ = 0;
};

/// Planned send times, in seconds, of `n` open-loop queries: a Poisson
/// process of `rate` per second, as independent users arrive.  Fixed
/// intervals of 2 ms (500 q/s) would race every arrival against the
/// daemon's 2 ms batching window, and the median then flipped between
/// two modes from run to run (README.md, "Noise").
std::vector<double> poisson_arrivals(std::uint64_t seed, std::uint64_t stream, double rate,
                                     std::size_t n) {
  sva::Xoshiro256 rng(seed, stream);
  std::vector<double> out(n);
  double t = 0.0;
  for (double& a : out) {
    a = t;
    t -= std::log1p(-rng.uniform()) / rate;
  }
  return out;
}

/// Canonical digest of a result set: doc ids and exact double bit
/// patterns, so two digests agree iff the answers are bit-identical.
std::uint64_t digest_results(const std::vector<QueryResult>& results) {
  sva::ByteWriter w;
  w.u64(results.size());
  for (const auto& r : results) {
    w.u64(static_cast<std::uint64_t>(r.kind));
    w.u64(r.hits.size());
    for (const auto& h : r.hits) {
      w.u64(h.doc_id);
      w.f64(h.similarity);
    }
    const auto& s = r.summary;
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.cluster)));
    w.u64(static_cast<std::uint64_t>(s.size));
    w.f64(s.cohesion);
    w.u64(s.representatives.size());
    for (const auto d : s.representatives) w.u64(d);
    for (const auto& t : s.top_terms) w.str(t);
  }
  return engine::fnv1a64(w.bytes.data(), w.bytes.size());
}

// ---- the engine composed from its public calls ---------------------------

/// The pipeline run_text_engine / Engine::run execute, composed from the
/// public stage calls so each one can be a span.  `sharded` ingests
/// through engine::ingest_sharded (what Engine::run does with a shard
/// plan) instead of scan + invert.  `record_sizes` (rank 0) receives the
/// per-document byte sizes export_bundle weights rows by.
engine::EngineResult composed_build(ga::Context& ctx, const corpus::SourceSet& docs,
                                    bool sharded, const engine::EngineConfig& config,
                                    Tracer* tracer, std::vector<std::size_t>* record_sizes) {
  return traced(ctx, tracer, "engine.build", [&] {
    ga::StageTimer timer(ctx);
    engine::IngestState ingest = traced(ctx, tracer, "engine.ingest", [&] {
      if (sharded) {
        const corpus::InMemoryReader reader(docs);
        corpus::ShardingConfig shards;
        shards.num_shards = kTrecShards;
        return engine::ingest_sharded(ctx, reader, config.tokenizer, config.indexing, shards,
                                      timer);
      }
      // engine::ingest_single_pass, with its two calls split into spans.
      engine::IngestState state;
      auto scan = traced(ctx, tracer, "text.scan_sources", [&] {
        return sva::text::scan_sources(ctx, docs, config.tokenizer);
      });
      state.vocabulary = scan.vocabulary;
      state.field_type_names = std::move(scan.field_type_names);
      state.records = std::move(scan.records);
      state.forward = std::move(scan.forward);
      state.num_records = state.forward.num_records;
      state.num_terms = state.vocabulary->size();
      state.total_term_occurrences = state.forward.total_terms;
      timer.mark("scan");
      auto indexing = traced(ctx, tracer, "index.build_inverted_index", [&] {
        return sva::index::build_inverted_index(ctx, state.forward, state.num_terms,
                                                config.indexing);
      });
      state.index = std::move(indexing.index);
      state.stats = std::move(indexing.stats);
      state.load_balance = std::move(indexing.load_balance);
      timer.mark("index");
      return state;
    });
    auto sig_state = traced(ctx, tracer, "sig.run_signature_stage", [&] {
      return engine::run_signature_stage(ctx, ingest, config, timer);
    });
    auto cluster_state = traced(ctx, tracer, "cluster.run_cluster_stage", [&] {
      return engine::run_cluster_stage(ctx, sig_state, config, timer);
    });
    auto projection_state = traced(ctx, tracer, "cluster.run_projection_stage", [&] {
      return engine::run_projection_stage(ctx, ingest, sig_state, cluster_state, config, timer);
    });
    if (record_sizes != nullptr) {
      traced(ctx, tracer, "engine.gather_record_sizes", [&] {
        std::vector<std::uint64_t> mine;
        mine.reserve(ingest.records.size());
        for (const auto& rec : ingest.records) mine.push_back(rec.raw_bytes);
        const auto all = ctx.gatherv(std::span<const std::uint64_t>(mine), 0);
        record_sizes->assign(all.begin(), all.end());
      });
    }
    return traced(ctx, tracer, "engine.assemble_result", [&] {
      return engine::assemble_result(std::move(ingest), std::move(sig_state),
                                     std::move(cluster_state), std::move(projection_state),
                                     engine::fold_timings(timer));
    });
  });
}

/// What the traced build pass measured (rank 0's view).
struct BuildTour {
  std::uint64_t untraced_checksum = 0;
  std::uint64_t traced_checksum = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double coverage = 0.0;  ///< summed stage spans / build span
  double modeled_s = 0.0;
  double imbalance = 0.0;
  int rounds = 0;
  int iterations = 0;
  double bundle_mb = 0.0;
};

/// Traced run, build half: a warm-up and an untraced build, then the
/// traced build (its wall time against the untraced one is the tracing
/// overhead).  A serve set-up then exports the traced result to `bundle`;
/// the build workloads pass an empty path and export nothing.
BuildTour run_build_tour(const ga::SpmdOptions& shape, const corpus::SourceSet& docs,
                         bool sharded, const engine::EngineConfig& config, Tracer& tracer,
                         const fs::path& bundle) {
  BuildTour tour;
  const bool exporting = !bundle.empty();
  ga::spmd_run(shape, [&](ga::Context& ctx) {
    (void)composed_build(ctx, docs, sharded, config, nullptr, nullptr);
    {
      ctx.barrier();
      WallTimer wall;
      const auto plain = composed_build(ctx, docs, sharded, config, nullptr, nullptr);
      ctx.barrier();
      if (ctx.rank() == 0) {
        tour.untraced_s = wall.elapsed();
        tour.untraced_checksum = engine::result_checksum(plain);
      }
    }
    std::vector<std::size_t> sizes;
    const auto result =
        composed_build(ctx, docs, sharded, config, &tracer, exporting ? &sizes : nullptr);
    if (exporting) {
      traced(ctx, &tracer, "engine.export_bundle",
             [&] { engine::export_bundle(ctx, result, config, bundle, sizes); });
    }
    if (ctx.rank() == 0) {
      std::uint64_t build = 0;
      for (const auto& span : tracer.spans()) {
        if (span.name == "engine.build") build = span.id;
      }
      tour.traced_checksum = engine::result_checksum(result);
      tour.traced_s = tracer.duration_s(build);
      tour.coverage = tracer.children_s(build) / tour.traced_s;
      tour.modeled_s = result.timings.total();
      tour.imbalance = result.index_load_balance.imbalance();
      tour.rounds = result.signature_rounds;
      tour.iterations = result.clustering.iterations;
      if (exporting) tour.bundle_mb = static_cast<double>(fs::file_size(bundle)) / (1 << 20);
    }
  });
  return tour;
}

/// Traced run, every workload, in the shape of its worlds: empty spmd_run
/// launches and the GA collectives the engine and the query plane ride on,
/// each timed on rank 0 from an aligned start (no closing barrier: the
/// span is rank 0's view of one operation).
void run_ga_probes(const ga::SpmdOptions& shape, const Scale& scale, Tracer& tracer) {
  for (int i = 0; i < scale.spawn_reps; ++i) {
    tracer.open("ga.spmd_run_empty");
    ga::spmd_run(shape, [](ga::Context&) {});
    tracer.close();
  }
  ga::spmd_run(shape, [&](ga::Context& ctx) {
    auto probe = [&](const char* name, int reps, auto&& op) {
      for (int i = 0; i < reps; ++i) {
        ctx.barrier();
        if (ctx.rank() == 0) tracer.open(name);
        op();
        if (ctx.rank() == 0) tracer.close();
      }
    };
    probe("ga.barrier", scale.barrier_reps, [&] { ctx.barrier(); });
    std::vector<double> reduce_buf(1024, 0.0);
    probe("ga.allreduce_sum_1024", scale.collective_reps,
          [&] { ctx.allreduce_sum(reduce_buf.data(), reduce_buf.size()); });
    const std::vector<double> gather_mine(4096, static_cast<double>(ctx.rank()));
    probe("ga.allgatherv_32k", scale.collective_reps,
          [&] { (void)ctx.allgatherv(std::span<const double>(gather_mine)); });
    {
      constexpr std::size_t kBlock = 1024;
      const auto np = static_cast<std::size_t>(ctx.nprocs());
      auto array = ga::GlobalArray<double>::create(ctx, kBlock * np);
      // Rows are block-distributed, kBlock per rank: read the next rank's.
      const std::size_t owner = (static_cast<std::size_t>(ctx.rank()) + 1) % np;
      std::vector<std::size_t> indices(kBlock);
      for (std::size_t j = 0; j < kBlock; ++j) indices[j] = owner * kBlock + j;
      std::vector<double> values(kBlock);
      probe("ga.remote_gather_1024", scale.collective_reps,
            [&] { array.gather(ctx, indices, std::span<double>(values)); });
      ctx.barrier();
    }
  });
}

/// Traced serve workloads, in the serving shape: open the bundle, time
/// single and 16-query sweeps, and delta-ingest `delta`.
void run_query_tour(const ga::SpmdOptions& shape, const fs::path& bundle,
                    const corpus::SourceSet& delta, const fs::path& delta_out,
                    std::uint64_t seed, const Scale& scale, Tracer& tracer) {
  ga::spmd_run(shape, [&](ga::Context& ctx) {
    auto session = traced(ctx, &tracer, "query.Session::open",
                          [&] { return sva::query::Session::open(ctx, bundle); });
    QueryStream stream(seed, kSweepStream, session.num_documents(), session.num_clusters(),
                       0.0);
    std::int64_t request = 0;
    for (int i = 0; i < scale.sweep_reps; ++i) {
      const auto batch = stream.take(1);
      traced(ctx, &tracer, "query.run_batch_1", [&] { (void)session.run_batch(batch); },
             request++);
    }
    for (int i = 0; i < scale.sweep_reps; ++i) {
      const auto batch = stream.take(16);
      traced(ctx, &tracer, "query.run_batch_16", [&] { (void)session.run_batch(batch); },
             request++);
    }
    const corpus::InMemoryReader reader(delta);
    traced(ctx, &tracer, "engine.ingest_delta",
           [&] { (void)engine::ingest_delta(ctx, bundle, reader, delta_out); });
  });
}

/// Serve-layer counters over the timed window.  They read zero on the
/// build workloads, whose serving layer does no work.
struct ServeCounters {
  double batch_mean = 0.0;
  double deadline_flush_frac = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_invalidations = 0.0;
  double expired = 0.0;
  double rejected = 0.0;
  double capacity_qps = 0.0;
  double ingest_s = 0.0;  ///< median Server::ingest submit-to-ready
  double loadgen_late_p99_ms = 0.0;
};

ServeCounters counters_between(const sva::serve::ServerStats& a,
                               const sva::serve::ServerStats& b) {
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto diff = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  const auto& sa = a.scheduler;
  const auto& sb = b.scheduler;
  ServeCounters c;
  c.batch_mean = ratio(diff(a.queries_swept, b.queries_swept), diff(a.sweeps, b.sweeps));
  c.deadline_flush_frac =
      ratio(diff(sa.deadline_flushes, sb.deadline_flushes), diff(sa.batches, sb.batches));
  const double hits = diff(a.cache.hits, b.cache.hits);
  c.cache_hit_ratio = ratio(hits, hits + diff(a.cache.misses, b.cache.misses));
  c.cache_invalidations = diff(a.cache.invalidations, b.cache.invalidations);
  c.expired = diff(sa.expired, sb.expired);
  c.rejected = diff(a.rejected, b.rejected);
  return c;
}

/// Reports the per-layer metrics, checks the traced build against
/// `reference`, and writes the trace file.  A metric of a call the
/// workload's path does not make reads 0: the query tour's on build_*,
/// scan and invert on the sharded build.
void finish_trace(Outcome& out, const Options& opt, const Tracer& tr, const BuildTour& bt,
                  const ServeCounters& sc, std::uint64_t reference) {
  auto only = [&](const char* name) {
    return tr.durations_s(name).empty() ? 0.0 : tr.only_s(name);
  };
  auto med = [&](const char* name) {
    const auto d = tr.durations_s(name);
    return d.empty() ? 0.0 : median(d);
  };
  add(out, "text.scan_s", only("text.scan_sources"), "s");
  add(out, "index.invert_s", only("index.build_inverted_index"), "s");
  add(out, "engine.ingest_s", tr.only_s("engine.ingest"), "s");
  add(out, "index.imbalance_modeled", bt.imbalance, "ratio");
  add(out, "sig.stage_s", tr.only_s("sig.run_signature_stage"), "s");
  add(out, "sig.rounds", bt.rounds, "count");
  add(out, "cluster.kmeans_s", tr.only_s("cluster.run_cluster_stage"), "s");
  add(out, "cluster.iterations", bt.iterations, "count");
  add(out, "cluster.project_s", tr.only_s("cluster.run_projection_stage"), "s");
  add(out, "engine.stage_coverage", bt.coverage, "ratio");
  add(out, "engine.build_traced_s", bt.traced_s, "s");
  add(out, "engine.modeled_s", bt.modeled_s, "s");
  add(out, "trace.overhead_frac", bt.traced_s / bt.untraced_s - 1.0, "ratio");
  add(out, "engine.export_bundle_s", only("engine.export_bundle"), "s");
  add(out, "engine.bundle_mb", bt.bundle_mb, "MiB");
  add(out, "query.open_s", only("query.Session::open"), "s");
  add(out, "query.sweep1_ms", med("query.run_batch_1") * 1e3, "ms");
  add(out, "query.sweep16_ms", med("query.run_batch_16") * 1e3, "ms");
  add(out, "engine.ingest_delta_s", only("engine.ingest_delta"), "s");
  add(out, "ga.spawn_ms", med("ga.spmd_run_empty") * 1e3, "ms");
  add(out, "ga.barrier_us", med("ga.barrier") * 1e6, "us");
  add(out, "ga.allreduce_8k_us", med("ga.allreduce_sum_1024") * 1e6, "us");
  add(out, "ga.allgatherv_32k_us", med("ga.allgatherv_32k") * 1e6, "us");
  add(out, "ga.remote_gather_us", med("ga.remote_gather_1024") * 1e6, "us");
  add(out, "serve.batch_mean", sc.batch_mean, "count");
  add(out, "serve.deadline_flush_frac", sc.deadline_flush_frac, "ratio");
  add(out, "serve.cache_hit_ratio", sc.cache_hit_ratio, "ratio");
  add(out, "serve.cache_invalidations", sc.cache_invalidations, "count");
  add(out, "serve.expired", sc.expired, "count");
  add(out, "serve.rejected", sc.rejected, "count");
  add(out, "serve.capacity_qps", sc.capacity_qps, "1/s");
  add(out, "serve.ingest_s", sc.ingest_s, "s");
  add(out, "loadgen.late_p99_ms", sc.loadgen_late_p99_ms, "ms");

  if (bt.traced_checksum != reference || bt.untraced_checksum != reference) {
    out.mismatches.push_back(
        "traced build checksum " + engine::checksum_hex(bt.traced_checksum) + " / untraced " +
        engine::checksum_hex(bt.untraced_checksum) + " != reference " +
        engine::checksum_hex(reference));
  }
  if (bt.coverage < 0.95) {
    out.mismatches.push_back("stage spans cover only " + std::to_string(bt.coverage) +
                             " of the traced build");
  }
  const fs::path path = opt.work_dir / ("trace_" + opt.workload + ".json");
  tr.write_chrome(path);
  out.meta.emplace_back("trace_file", json_string(path.string()));
  out.meta.emplace_back("trace_spans", std::to_string(tr.spans().size()));
}

// ---- build workloads --------------------------------------------------------

struct BuildWorkload {
  corpus::CorpusKind kind;
  ga::Backend backend;
  bool sharded;
};

/// One timed operation: a full build, world launch included.
std::uint64_t build_once(const BuildWorkload& w, const corpus::SourceSet& docs,
                         const engine::EngineConfig& config) {
  const ga::SpmdOptions shape = spmd(kBuildProcs, w.backend);
  if (!w.sharded) {
    return engine::result_checksum(engine::run_pipeline(shape, docs, config).result);
  }
  const corpus::InMemoryReader reader(docs);
  engine::Engine eng(config);
  engine::PipelineOptions options;
  options.sharding.num_shards = kTrecShards;
  std::uint64_t checksum = 0;
  ga::spmd_run(shape, [&](ga::Context& ctx) {
    const auto result = eng.run(ctx, reader, options);
    if (ctx.rank() == 0) checksum = engine::result_checksum(*result);
  });
  return checksum;
}

/// build_pubmed against P=1; the sharded socket build against the
/// single-pass thread backend at the same P.
std::uint64_t reference_checksum(const BuildWorkload& w, const corpus::SourceSet& docs,
                                 const engine::EngineConfig& config) {
  const ga::SpmdOptions shape = spmd(w.sharded ? kBuildProcs : 1, ga::Backend::kThread);
  return engine::result_checksum(engine::run_pipeline(shape, docs, config).result);
}

Outcome run_build(const Options& opt, const BuildWorkload& w) {
  const Scale scale = scale_for(opt.smoke);
  const engine::EngineConfig config = engine_config();
  const std::size_t bytes =
      w.kind == corpus::CorpusKind::kPubMedLike ? scale.pubmed_bytes : scale.trec_bytes;
  const corpus::CorpusSpec spec = corpus_spec(w.kind, bytes, opt.seed);
  Outcome out;
  out.max_procs = kBuildProcs;

  corpus::SourceSet docs;
  if (opt.trace) {
    docs = corpus::generate_corpus(spec);
    Tracer tracer;
    const std::uint64_t reference = reference_checksum(w, docs, config);
    out.attempted += 4;  // reference, warm-up, untraced and traced builds
    const BuildTour bt =
        run_build_tour(spmd(kBuildProcs, w.backend), docs, w.sharded, config, tracer, {});
    run_ga_probes(spmd(kBuildProcs, w.backend), scale, tracer);
    finish_trace(out, opt, tracer, bt, ServeCounters{}, reference);
    return out;
  }

  // Memory: the peak RSS of a fresh process that generates the corpus and
  // builds once, as a tool run would.  It is forked while this process is
  // still small, before set-up, since a child's RSS counts the pages it
  // inherits.
  ++out.attempted;
  const double rss_mib = in_child_process("memory probe build", [&] {
    const corpus::SourceSet fresh = corpus::generate_corpus(spec);
    (void)build_once(w, fresh, config);
  });

  // Set-up: corpus generation and one untimed warm-up build (the first
  // build in a process runs ~1.7x slower).  Corpus generation alone is one
  // thread for a quarter second, whose speed on a shared host varies from
  // process to process by ~40%.
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    docs = corpus::SourceSet{};
    WallTimer t;
    docs = corpus::generate_corpus(spec);
    (void)build_once(w, docs, config);
    setup.push_back(t.elapsed());
  }
  out.meta.emplace_back("corpus_docs", std::to_string(docs.size()));
  out.meta.emplace_back("corpus_bytes", std::to_string(docs.total_bytes()));

  std::vector<double> latency;
  std::vector<std::uint64_t> checksums;
  WallTimer window;
  for (int attempts = 0; attempts < kMinBuilds || window.elapsed() < opt.seconds; ++attempts) {
    ++out.attempted;
    try {
      WallTimer t;
      checksums.push_back(build_once(w, docs, config));
      latency.push_back(t.elapsed());
    } catch (...) {
      ++out.failed;
      out.mismatches.push_back("build failed: " + what_of(std::current_exception()));
    }
  }
  const double window_s = window.elapsed();
  if (latency.empty()) throw std::runtime_error("no build completed");

  ++out.attempted;
  const std::uint64_t reference = reference_checksum(w, docs, config);
  for (const auto c : checksums) {
    if (c != reference) {
      ++out.failed;
      out.mismatches.push_back("build checksum " + engine::checksum_hex(c) + " != reference " +
                               engine::checksum_hex(reference));
    }
  }

  std::vector<double> latency_ms;
  for (const double s : latency) latency_ms.push_back(s * 1e3);
  add(out, "setup_s", median(setup), "s");
  add(out, "op_p50_ms", median(latency_ms), "ms");
  add(out, "ops_per_s", static_cast<double>(latency.size()) / window_s, "1/s");
  add(out, "peak_rss_mb", rss_mib, "MiB");
  out.meta.emplace_back("checksum", json_string(engine::checksum_hex(reference)));
  out.meta.emplace_back("setup_samples_s", json_list(setup));
  out.meta.emplace_back("op_samples_ms", json_list(latency_ms));
  // Within-run spread, to set beside the spread between runs.
  if (latency_ms.size() >= 2) {
    out.meta.emplace_back("op_iqr_over_median", json_number(relative_iqr(latency_ms)));
  }
  return out;
}

// ---- serve workloads ----------------------------------------------------------

struct IngestPlan {
  double at_s = 0.0;
  fs::path docs;
  fs::path out;
};

struct OpenLoopRun {
  std::vector<OpenLoopSample> samples;  ///< answered queries
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  double last_done_s = 0.0;
  std::vector<double> ingest_s;  ///< submit-to-ready, answered ingests
  std::uint64_t ingests_failed = 0;
};

/// Drives the open loop: a dispatcher thread sends query i at planned_s[i]
/// (and each scheduled ingest at its own time), this thread
/// collects answers in order.  Misses complete in sweep order, which is
/// submission order among misses; a cache hit is ready at submit and is
/// stamped there by the dispatcher.
OpenLoopRun drive_open_loop(sva::serve::Server& server, const std::vector<Query>& queries,
                            const std::vector<double>& planned_s,
                            const std::vector<IngestPlan>& ingests) {
  const std::size_t n = queries.size();
  std::vector<std::future<QueryResult>> futures(n);
  std::vector<double> sent(n, 0.0);
  std::vector<double> ready_at_submit(n, -1.0);
  std::atomic<std::size_t> dispatched{0};
  OpenLoopRun out;
  const auto start = Clock::now();
  auto since = [start] { return Seconds(Clock::now() - start).count(); };
  auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(Seconds(s));
  };

  std::exception_ptr dispatcher_error;
  std::thread dispatcher([&] {
    // The default 50 us timer slack would show up as generator lateness.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    try {
      std::vector<std::future<engine::DeltaReport>> pending(ingests.size());
      std::vector<double> ingest_sent(ingests.size(), 0.0);
      std::size_t next_ingest = 0;
      auto settle = [&](std::size_t j) {
        try {
          (void)pending[j].get();
          out.ingest_s.push_back(since() - ingest_sent[j]);
        } catch (...) {
          ++out.ingests_failed;
          out.errors.push_back("ingest failed: " + what_of(std::current_exception()));
        }
      };
      auto poll_ingests = [&] {
        for (std::size_t j = 0; j < next_ingest; ++j) {
          if (pending[j].valid() &&
              pending[j].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            settle(j);
          }
        }
      };
      auto send_ingest = [&] {
        const IngestPlan& plan = ingests[next_ingest];
        std::this_thread::sleep_until(at(plan.at_s));
        ingest_sent[next_ingest] = since();
        pending[next_ingest] = server.ingest(plan.docs, plan.out);
        ++next_ingest;
      };
      for (std::size_t i = 0; i < n; ++i) {
        const double planned = planned_s[i];
        while (next_ingest < ingests.size() && ingests[next_ingest].at_s <= planned) {
          send_ingest();
        }
        // Sleep to just short of the planned time, then spin: a wake-up
        // from sleep runs tens of microseconds late on a virtual machine,
        // longer than a cache hit takes.
        std::this_thread::sleep_until(at(planned - kSpinLead_s));
        while (Clock::now() < at(planned)) {
        }
        futures[i] = server.submit(queries[i]);
        sent[i] = since();
        if (futures[i].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          ready_at_submit[i] = since();
        }
        dispatched.store(i + 1, std::memory_order_release);
        poll_ingests();
      }
      while (next_ingest < ingests.size()) send_ingest();
      for (std::size_t j = 0; j < ingests.size(); ++j) {
        if (pending[j].valid()) settle(j);
      }
    } catch (...) {
      dispatcher_error = std::current_exception();
      dispatched.store(n + 1, std::memory_order_release);
    }
  });

  std::vector<std::string> query_errors;
  for (std::size_t i = 0; i < n; ++i) {
    while (dispatched.load(std::memory_order_acquire) <= i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (!futures[i].valid()) break;  // the dispatcher failed before sending it
    try {
      (void)futures[i].get();
      const double done = ready_at_submit[i] >= 0.0 ? ready_at_submit[i] : since();
      out.samples.push_back({planned_s[i], sent[i], done});
      out.last_done_s = std::max(out.last_done_s, done);
    } catch (...) {
      ++out.failed;
      if (query_errors.size() < 4) query_errors.push_back(what_of(std::current_exception()));
    }
  }
  dispatcher.join();
  if (dispatcher_error) std::rethrow_exception(dispatcher_error);
  for (auto& e : query_errors) out.errors.push_back("query failed: " + e);
  return out;
}

/// Closed loop: one client keeps `kClosedWindow` queries outstanding for
/// `seconds`, then drains; the completion rate is the serving capacity.
struct ClosedLoopRun {
  std::uint64_t failed = 0;
  std::vector<double> done_s;  ///< completion times since the loop started
};

ClosedLoopRun drive_closed_loop(sva::serve::Server& server, QueryStream& stream,
                                double seconds) {
  ClosedLoopRun out;
  std::deque<std::future<QueryResult>> window;
  WallTimer t;
  for (std::size_t k = 0; k < kClosedWindow; ++k) {
    window.push_back(server.submit(stream.next()));
  }
  while (!window.empty()) {
    try {
      (void)window.front().get();
      out.done_s.push_back(t.elapsed());
    } catch (...) {
      ++out.failed;
    }
    window.pop_front();
    if (t.elapsed() < seconds) window.push_back(server.submit(stream.next()));
  }
  return out;
}

/// A one-shot Session::run_batch at the serving P: the reference the
/// daemon's answers must reproduce bit-identically.
std::uint64_t oneshot_digest(const fs::path& bundle, const std::vector<Query>& queries) {
  std::uint64_t digest = 0;
  ga::spmd_run(spmd(kServeProcs, ga::Backend::kThread), [&](ga::Context& ctx) {
    auto session = sva::query::Session::open(ctx, bundle);
    const auto results = session.run_batch(queries);
    if (ctx.rank() == 0) digest = digest_results(results);
  });
  return digest;
}

/// The daemon's answers to a fixed probe set, sent concurrently.
std::uint64_t daemon_digest(sva::serve::Server& server, const std::vector<Query>& queries) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) futures.push_back(server.submit(q));
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (auto& f : futures) results.push_back(f.get());
  return digest_results(results);
}

/// What one serve set-up leaves running.
struct ServeSetup {
  corpus::SourceSet base;  ///< traced runs: the documents the bundle was built from
  std::vector<fs::path> ingest_files;
  fs::path bundle;
  std::optional<BuildTour> tour;  ///< traced runs build through the tour
  std::unique_ptr<sva::serve::Server> server;
};

/// The documents the served bundle is built from.  serve_live holds back
/// the corpus tail and writes it to `ingest_files` for the daemon to ingest.
corpus::SourceSet serve_corpus(const Options& opt, const std::vector<fs::path>& ingest_files) {
  corpus::SourceSet all = corpus::generate_corpus(corpus_spec(
      corpus::CorpusKind::kPubMedLike, scale_for(opt.smoke).serve_bytes, opt.seed));
  if (ingest_files.empty()) return all;
  const std::size_t n = all.size();
  const auto held_back = std::max<std::size_t>(
      kLiveIngests, static_cast<std::size_t>(kLiveTailShare * static_cast<double>(n)));
  const std::size_t n_base = n - held_back;
  corpus::SourceSet base;
  for (std::size_t i = 0; i < n_base; ++i) base.add(all[i]);
  const auto first = all.docs().begin();
  for (int g = 0; g < kLiveIngests; ++g) {
    const auto b = static_cast<std::ptrdiff_t>(n_base + held_back * g / kLiveIngests);
    const auto e = static_cast<std::ptrdiff_t>(n_base + held_back * (g + 1) / kLiveIngests);
    write_docs_file(ingest_files[static_cast<std::size_t>(g)],
                    std::vector<corpus::RawDocument>(first + b, first + e));
  }
  return base;
}

/// Corpus generation, the engine run and export_bundle, and
/// Server::start.  Untraced, as in a deployment, a separate process
/// generates the corpus and builds the bundle, so the daemon's heap holds
/// only what serving needs; traced, the build runs here as the tour.
ServeSetup serve_setup(const Options& opt, bool live, const fs::path& dir, Tracer* tracer) {
  const engine::EngineConfig config = engine_config();
  ServeSetup s;
  for (int g = 0; live && g < kLiveIngests; ++g) {
    s.ingest_files.push_back(dir / ("ingest_" + std::to_string(g) + ".txt"));
  }
  s.bundle = dir / "base.svab";
  if (tracer != nullptr) {
    s.base = serve_corpus(opt, s.ingest_files);
    s.tour = run_build_tour(spmd(kBuildProcs, ga::Backend::kThread), s.base, false, config,
                            *tracer, s.bundle);
  } else {
    (void)in_child_process("bundle build", [&] {
      const corpus::SourceSet base = serve_corpus(opt, s.ingest_files);
      const corpus::InMemoryReader reader(base);
      engine::Engine eng(config);
      engine::PipelineOptions options;
      options.export_bundle = s.bundle;
      ga::spmd_run(spmd(kBuildProcs, ga::Backend::kThread),
                   [&](ga::Context& ctx) { (void)eng.run(ctx, reader, options); });
    });
  }
  sva::serve::ServeOptions serve_options;
  serve_options.procs = kServeProcs;
  s.server = std::make_unique<sva::serve::Server>(s.bundle, serve_options);
  s.server->start();
  return s;
}

Outcome run_serve(const Options& opt, bool live) {
  const Scale scale = scale_for(opt.smoke);
  Outcome out;
  out.max_procs = kBuildProcs;  // set-up builds the bundle at P=4; serving is P=2
  ScratchDir scratch(opt);
  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();

  std::vector<double> setup;
  ServeSetup s;
  for (int r = 0; r < (opt.trace ? 1 : kSetupReps); ++r) {
    if (s.server) {
      s.server->stop();
      s.server->join();
    }
    s = ServeSetup{};
    WallTimer t;
    s = serve_setup(opt, live, scratch.path(), tracer ? &*tracer : nullptr);
    setup.push_back(t.elapsed());
  }
  sva::serve::Server& server = *s.server;
  const std::uint64_t num_docs = server.num_documents();
  const std::size_t num_clusters = server.num_clusters();
  out.meta.emplace_back("served_docs", std::to_string(num_docs));
  const double zipf = live ? kLiveZipf : 0.0;
  const double rate = live ? kLiveRate : kUniformRate;

  // Warm-up: the first timed window otherwise runs slow.
  {
    QueryStream warm(opt.seed, kWarmupStream, num_docs, num_clusters, zipf);
    const auto n = static_cast<std::size_t>(rate * scale.serve_warmup_s);
    (void)drive_open_loop(server, warm.take(n),
                          poisson_arrivals(opt.seed, kWarmupArrivalStream, rate, n), {});
  }

  const auto before = server.stats();
  QueryStream stream(opt.seed, kWindowStream, num_docs, num_clusters, zipf);
  const auto queries = stream.take(static_cast<std::size_t>(rate * opt.seconds));
  const auto arrivals = poisson_arrivals(opt.seed, kWindowArrivalStream, rate, queries.size());
  std::vector<IngestPlan> ingests;
  for (std::size_t g = 0; g < s.ingest_files.size(); ++g) {
    const double at_s = (static_cast<double>(g) + 0.5) * opt.seconds / kLiveIngests;
    ingests.push_back(
        {at_s, s.ingest_files[g], scratch.path() / ("gen_" + std::to_string(g + 1) + ".svab")});
  }
  const OpenLoopRun open = drive_open_loop(server, queries, arrivals, ingests);
  ServeCounters counters = counters_between(before, server.stats());
  // The daemon's peak so far (its bundle was built in a child process),
  // read before the checks below open more sessions in this process.
  const double rss_mib = peak_rss_mib();
  out.attempted += queries.size() + ingests.size();
  out.failed += open.failed + open.ingests_failed;
  for (const auto& e : open.errors) out.mismatches.push_back(e);
  if (open.samples.empty()) throw std::runtime_error("no query was answered");

  // Traced serve_uniform only: the capacity, with kClosedWindow queries
  // outstanding for half a window, as the median over its slices so that
  // one stall moves one slice.  Between processes it varies by ~25%, too
  // much to hold an end-to-end bound (README.md, "Noise").
  if (opt.trace && !live) {
    const double closed_s = opt.seconds / 2;
    QueryStream closed_stream(opt.seed, kClosedStream, num_docs, num_clusters, zipf);
    const ClosedLoopRun closed = drive_closed_loop(server, closed_stream, closed_s);
    out.attempted += closed.done_s.size() + closed.failed;
    out.failed += closed.failed;
    if (closed.failed > 0) {
      out.mismatches.push_back(std::to_string(closed.failed) + " closed-loop queries failed");
    }
    counters.capacity_qps =
        median(rates_per_slice(closed.done_s, closed_s / kCapacitySlices, closed_s));
  }

  // Correctness, outside the timed window: a fixed probe set through the
  // daemon against a one-shot sweep over the bundle it now serves.
  const fs::path served = ingests.empty() ? s.bundle : ingests.back().out;
  QueryStream probe_stream(opt.seed, kProbeStream, num_docs, num_clusters, 0.0);
  const auto probes = probe_stream.take(kProbeQueries);
  out.attempted += probes.size();
  const std::uint64_t got = daemon_digest(server, probes);
  const std::uint64_t want = oneshot_digest(served, probes);
  if (got != want) {
    out.failed += probes.size();
    out.mismatches.push_back("daemon probe digest " + engine::checksum_hex(got) +
                             " != one-shot " + engine::checksum_hex(want));
  }
  if (server.stats().generation != ingests.size()) {
    out.mismatches.push_back("served generation " + std::to_string(server.stats().generation) +
                             " after " + std::to_string(ingests.size()) + " ingests");
  }
  server.stop();
  server.join();

  // serve_live: the final generation must equal an offline replay of the
  // same ingest_delta chain.
  if (live && open.ingests_failed == 0) {
    fs::path replayed = s.bundle;
    ga::spmd_run(spmd(kServeProcs, ga::Backend::kThread), [&](ga::Context& ctx) {
      fs::path base = s.bundle;
      for (std::size_t g = 0; g < ingests.size(); ++g) {
        const corpus::SourceSet docs = read_docs_file(ingests[g].docs);
        const corpus::InMemoryReader reader(docs);
        const fs::path next = scratch.path() / ("replay_" + std::to_string(g + 1) + ".svab");
        (void)engine::ingest_delta(ctx, base, reader, next);
        base = next;
      }
      if (ctx.rank() == 0) replayed = base;
    });
    if (file_bytes(replayed) != file_bytes(served)) {
      out.mismatches.push_back("final generation differs from the offline ingest_delta replay");
    }
  }

  const OpenLoopSummary summary = summarize_open_loop(open.samples);
  const double p50_ms = median(summary.latency_s) * 1e3;
  const double late_p99_ms = percentile(summary.late_s, 99) * 1e3;
  if (opt.trace) {
    counters.loadgen_late_p99_ms = late_p99_ms;
    if (!open.ingest_s.empty()) counters.ingest_s = median(open.ingest_s);
    run_query_tour(spmd(kServeProcs, ga::Backend::kThread), s.bundle, delta_docs(s.base),
                   scratch.path() / "tour_delta.svab", opt.seed, scale, *tracer);
    run_ga_probes(spmd(kServeProcs, ga::Backend::kThread), scale, *tracer);
    const ga::SpmdOptions build_shape = spmd(kBuildProcs, ga::Backend::kThread);
    const std::uint64_t reference = engine::result_checksum(
        engine::run_pipeline(build_shape, s.base, engine_config()).result);
    finish_trace(out, opt, *tracer, *s.tour, counters, reference);
    return out;
  }

  add(out, "setup_s", median(setup), "s");
  add(out, "op_p50_ms", p50_ms, "ms");
  // The answered rate: the offered rate unless the daemon saturates and a
  // backlog grows.
  add(out, "ops_per_s", static_cast<double>(open.samples.size()) / open.last_done_s, "1/s");
  add(out, "peak_rss_mb", rss_mib, "MiB");
  out.meta.emplace_back("setup_samples_s", json_list(setup));
  out.meta.emplace_back("open_loop_rate_per_s", json_number(rate));
  out.meta.emplace_back("open_loop_samples", std::to_string(open.samples.size()));
  // Reported, not bounded: on a shared virtual machine the tail is mostly
  // the host preempting the daemon's threads (README.md, "Noise").
  out.meta.emplace_back("op_p99_ms", json_number(percentile(summary.latency_s, 99) * 1e3));
  out.meta.emplace_back("loadgen_late_p99_ms", json_number(late_p99_ms));
  if (late_p99_ms > p50_ms) {
    out.meta.emplace_back("loadgen_warning",
                          json_string("the generator ran later than the median latency, so "
                                      "it, not the daemon, set the tail"));
  }
  if (live) {
    std::vector<double> ms;
    for (const double v : open.ingest_s) ms.push_back(v * 1e3);
    out.meta.emplace_back("ingest_ms", json_list(ms));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"build_pubmed", "build_trec_socket",
                                                 "serve_uniform", "serve_live"};
  return names;
}

Outcome run_workload(const Options& opt) {
  if (opt.workload == "build_pubmed") {
    return run_build(opt, {corpus::CorpusKind::kPubMedLike, ga::Backend::kThread, false});
  }
  if (opt.workload == "build_trec_socket") {
    return run_build(opt, {corpus::CorpusKind::kTrecLike, ga::Backend::kSocket, true});
  }
  if (opt.workload == "serve_uniform") return run_serve(opt, false);
  if (opt.workload == "serve_live") return run_serve(opt, true);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

}  // namespace e2e
