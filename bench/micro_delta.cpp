// Microbenchmark for incremental delta ingestion: one engine pass over
// the first 90% of the corpus exports the base bundle; the remaining 10%
// then lands two ways at each processor count —
//
//   delta_ingest:    engine::ingest_delta scans only the new documents
//                    and folds them into the next bundle generation;
//   full_recompute:  recompute_generation re-scans the combined corpus
//                    under the same frozen model (what every ingest
//                    would cost without the delta path).
//
// best_s per (path, P) is the wall figure the CI gate tracks; the
// determinism ledger records the FNV-1a digest of the produced bundle
// per (path, P) — the two paths must produce byte-identical bundles
// (the PR's acceptance invariant), so a single shared digest per P is
// recorded for both and the benchmark fails on any divergence.  The
// benchmark also fails when a 10% delta stops beating the full
// recompute by at least 3x at P=1 (relaxed at smoke size, strict
// improvement at higher P): losing that margin means the delta path
// re-scans work it should inherit.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "registry.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/delta.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/engine.hpp"
#include "sva/util/error.hpp"
#include "sva/util/timer.hpp"

namespace svabench {
namespace {

std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  sva::require(in.good(), "micro_delta: cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  return sva::engine::fnv1a64(bytes.data(), bytes.size());
}

struct DeltaMeasurement {
  double delta_s = 0.0;
  double recompute_s = 0.0;
  std::uint64_t delta_digest = 0;
  std::uint64_t recompute_digest = 0;
};

/// Times both ingestion paths at P ranks, best-of-reps, barrier-fenced.
/// Every rep rewrites its output bundle (temp-then-rename), so the
/// measured figure includes the full artifact cost each path pays.
DeltaMeasurement measure_paths(const std::filesystem::path& base,
                               const sva::corpus::CorpusReader& combined,
                               std::size_t n_base, const std::filesystem::path& out_dir,
                               int nprocs, int reps) {
  DeltaMeasurement out;
  const sva::corpus::SliceReader tail(combined, n_base, combined.size());
  const auto delta_out = out_dir / ("micro_delta_ingest_p" + std::to_string(nprocs) + ".svab");
  const auto recompute_out =
      out_dir / ("micro_delta_recompute_p" + std::to_string(nprocs) + ".svab");

  // One delta rep, then one recompute rep, each round: a burst of host
  // load lands on both paths instead of only on whichever runs second.
  sva::ga::spmd_run(nprocs, [&](sva::ga::Context& ctx) {
    for (int rep = 0; rep < reps; ++rep) {
      ctx.barrier();
      sva::WallTimer delta_timer;
      (void)sva::engine::ingest_delta(ctx, base, tail, delta_out);
      ctx.barrier();
      const double delta_s = delta_timer.elapsed();

      sva::WallTimer recompute_timer;
      (void)sva::engine::recompute_generation(ctx, base, combined, recompute_out);
      ctx.barrier();
      const double recompute_s = recompute_timer.elapsed();
      if (ctx.rank() == 0) {
        if (rep == 0 || delta_s < out.delta_s) out.delta_s = delta_s;
        if (rep == 0 || recompute_s < out.recompute_s) out.recompute_s = recompute_s;
      }
    }
  });

  out.delta_digest = file_digest(delta_out);
  out.recompute_digest = file_digest(recompute_out);
  std::filesystem::remove(delta_out);
  std::filesystem::remove(recompute_out);
  return out;
}

report::Report run_micro_delta(const BenchOptions& opts) {
  banner("Micro: incremental delta ingestion vs full recompute");

  report::Report out;
  out.name = "micro_delta";
  out.kind = "micro";
  out.title = "Delta ingestion: 10% new documents vs frozen-model full recompute";

  const auto& sources = corpus_for(sva::corpus::CorpusKind::kPubMedLike, 0, opts);
  const sva::corpus::InMemoryReader combined(sources);
  const std::size_t n = combined.size();
  const std::size_t n_base = n * 9 / 10;
  sva::require(n_base > 0 && n_base < n, "micro_delta: corpus too small to split");

  // The served base: a real engine run over the 90% prefix (the bundle
  // must carry the frozen model for ingest_delta to extend it).
  std::filesystem::create_directories(opts.out_dir);
  const std::filesystem::path base = opts.out_dir / "micro_delta_base.svab";
  const sva::engine::EngineConfig config = bench_engine_config();
  {
    const sva::corpus::SliceReader head(combined, 0, n_base);
    sva::engine::Engine engine(config);
    sva::engine::PipelineOptions options;
    options.export_bundle = base;
    sva::ga::spmd_run(2, [&](sva::ga::Context& ctx) {
      (void)engine.run(ctx, head, options);
    });
  }

  const int reps = opts.smoke ? 3 : 5;
  sva::Table table({"path", "config", "best_s", "docs_per_s", "speedup"});
  json::Value series = json::Value::array();

  for (const int nprocs : {1, 2, 4}) {
    const DeltaMeasurement m =
        measure_paths(base, combined, n_base, opts.out_dir, nprocs, reps);
    sva::require(m.delta_digest == m.recompute_digest,
                 "micro_delta: delta bundle diverged from the frozen-model recompute at "
                 "P=" + std::to_string(nprocs));

    const std::size_t new_docs = n - n_base;
    const std::string config_key =
        "P=" + std::to_string(nprocs) + " new=" + std::to_string(new_docs) + "/" +
        std::to_string(n);
    const double speedup = m.delta_s > 0.0 ? m.recompute_s / m.delta_s : 0.0;
    // The >=3x economy claim is judged at P=1, where both paths are
    // serial and the ratio isolates the scanned work.  At higher P the
    // recompute's scan parallelizes while the costs BOTH paths pay
    // (full-point assignment eval, rank-0 artifact write) stay serial,
    // so only strict improvement is required there; at smoke size the
    // fixed costs dominate a 263-document corpus and the P=1 bar drops.
    const double min_speedup = nprocs == 1 ? (opts.smoke ? 2.0 : 3.0) : 1.5;
    sva::require(speedup >= min_speedup,
                 "micro_delta: a 10% delta must beat the full recompute >= " +
                     std::to_string(min_speedup) + "x, got " + std::to_string(speedup) +
                     "x at P=" + std::to_string(nprocs));

    auto add = [&](const std::string& path, double seconds, std::size_t docs,
                   double path_speedup) {
      table.add_row({path, config_key, sva::Table::num(seconds, 5),
                     sva::Table::num(seconds > 0.0 ? docs / seconds : 0.0, 1),
                     sva::Table::num(path_speedup, 2)});
      json::Value record = json::Value::object();
      record["primitive"] = path;
      record["config"] = config_key;
      record["best_s"] = seconds;
      record["docs_scanned"] = docs;
      if (path_speedup > 0.0) record["delta_speedup"] = path_speedup;
      series.push_back(std::move(record));
    };
    add("delta_ingest", m.delta_s, new_docs, speedup);
    add("full_recompute", m.recompute_s, n, 0.0);

    // The produced artifact is identical across paths AND across P —
    // one digest per P keys the cross-P determinism verdict.
    out.record_checksum("gen1 bundle", nprocs, m.delta_digest);
  }

  std::filesystem::remove(base);
  emit_table(opts, "micro_delta", table);
  out.data["series"] = std::move(series);
  out.data["table"] = report::table_json(table);
  out.data["base_docs"] = n_base;
  out.data["total_docs"] = n;
  return out;
}

const Registrar registrar{"micro_delta", "micro",
                          "Incremental delta ingestion vs frozen-model full recompute",
                          &run_micro_delta};

}  // namespace
}  // namespace svabench
