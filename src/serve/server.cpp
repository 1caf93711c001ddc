#include "sva/serve/server.hpp"

#include <algorithm>
#include <utility>

#include <fstream>
#include <sstream>

#include "sva/corpus/document.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/section_file.hpp"
#include "sva/fault/fault.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/serve/protocol.hpp"
#include "sva/util/bytes.hpp"
#include "sva/util/error.hpp"

namespace sva::serve {

namespace {

// Serve-loop command opcodes: rank 0 encodes, every rank decodes the
// same blob, so the world executes the identical collective sequence.
constexpr std::uint64_t kOpSweep = 0;   ///< count + encoded queries
constexpr std::uint64_t kOpReload = 1;  ///< bundle path string
constexpr std::uint64_t kOpExit = 2;
constexpr std::uint64_t kOpIngest = 3;  ///< base path + docs text + out path

constexpr const char* kShuttingDown = "server is shutting down";

std::vector<std::uint8_t> encode_exit() {
  ByteWriter w;
  w.u64(kOpExit);
  return std::move(w.bytes);
}

/// Renders a captured exception for failure reporting.
std::string describe_exception(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// One document per non-empty line, ids = positions (the contract
/// engine::ingest_delta expects from its reader).
corpus::SourceSet parse_ingest_docs(const std::string& text) {
  corpus::SourceSet docs;
  std::size_t start = 0;
  std::uint64_t seq = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    if (nl > start) {
      corpus::RawDocument doc;
      doc.id = seq++;
      doc.fields.push_back({"body", text.substr(start, nl - start)});
      docs.add(std::move(doc));
    }
    start = nl + 1;
  }
  return docs;
}

}  // namespace

Server::Server(std::filesystem::path bundle_path, ServeOptions options)
    : bundle_path_(std::move(bundle_path)),
      options_(options),
      scheduler_(options.batch_max, options.admission_deadline),
      cache_(options.cache_capacity) {
  served_path_ = bundle_path_;
}

Server::~Server() {
  stop_now();
  if (world_thread_.joinable()) world_thread_.join();
}

void Server::start() {
  require(!world_thread_.joinable(), "Server::start: already started");
  auto ready = ready_.get_future();
  running_.store(true);  // before the spawn: the thread clears it on exit
  world_thread_ = std::thread([this] { supervise(); });
  ready.get();  // rethrows a failed first Session::open
}

void Server::supervise() {
  ga::SpmdOptions world_options;
  world_options.nprocs = options_.procs;
  world_options.comm_model = options_.model;
  world_options.backend = options_.backend;
  world_options.socket_rendezvous = options_.socket_rendezvous;
  world_options.socket_node = options_.socket_node;
  world_options.socket_nodes = options_.socket_nodes;

  bool ever_healthy = false;
  int consecutive_failures = 0;
  auto backoff = options_.respawn_backoff;
  std::exception_ptr fatal;

  for (;;) {
    world_healthy_.store(false);
    std::exception_ptr err;
    try {
      ga::spmd_run(world_options, [this](ga::Context& ctx) { serve_world(ctx); });
    } catch (...) {
      err = std::current_exception();
    }
    if (err == nullptr) break;  // serve_world only returns on kOpExit

    // The world died abnormally.  Name the failure and fail every future
    // the dead world owned — a client must see an error, never a hang.
    const std::string reason = describe_exception(err);
    world_failures_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(meta_mutex_);
      last_failure_ = reason;
    }
    fail_world_owned(reason);

    const bool was_healthy = world_healthy_.load();
    ever_healthy = ever_healthy || was_healthy;
    if (!options_.respawn || !ever_healthy) {
      // Respawning only makes sense over a bundle that has served: a
      // world that never opened fails start() loudly instead of retrying
      // a configuration that has never worked.
      fatal = err;
      break;
    }
    consecutive_failures = was_healthy ? 1 : consecutive_failures + 1;
    backoff = was_healthy
                  ? options_.respawn_backoff
                  : std::min(backoff * 2, options_.respawn_backoff_max);
    if (consecutive_failures > options_.max_respawn_attempts) {
      fatal = std::make_exception_ptr(WorldFailure(
          "world failure: giving up after " +
          std::to_string(options_.max_respawn_attempts) +
          " consecutive respawn attempts (last: " + reason + ")"));
      break;
    }

    // Bounded exponential backoff, in slices so shutdown stays prompt and
    // queued work cannot wait past its admission deadline while nothing
    // is draining the scheduler.
    const auto until = std::chrono::steady_clock::now() + backoff;
    bool bail = false;
    for (;;) {
      if (cancel_.load() || (scheduler_.stopped() && scheduler_.pending() == 0)) {
        bail = true;  // shutdown requested with nothing left to serve
        break;
      }
      scheduler_.fail_expired();
      const auto now = std::chrono::steady_clock::now();
      if (now >= until) break;
      std::this_thread::sleep_for(
          std::min<std::chrono::steady_clock::duration>(
              until - now, std::chrono::milliseconds(20)));
    }
    if (bail) break;

    // Re-validate the last-good bundle serially before burning a fresh
    // world on it (the reload path's pre-validation idiom): a vanished or
    // torn file counts as a failed attempt and retries with backoff.
    std::filesystem::path serving;
    {
      std::lock_guard<std::mutex> lock(control_mutex_);
      serving = served_path_;
    }
    try {
      (void)engine::SectionedFile::read(serving, engine::kBundleMagic,
                                        engine::kBundleFormatVersion, "bundle");
    } catch (const std::exception& e) {
      ++consecutive_failures;
      backoff = std::min(backoff * 2, options_.respawn_backoff_max);
      {
        std::lock_guard<std::mutex> lock(meta_mutex_);
        last_failure_ = e.what();
      }
      if (consecutive_failures > options_.max_respawn_attempts) {
        fatal = std::make_exception_ptr(WorldFailure(
            "world failure: giving up after " +
            std::to_string(options_.max_respawn_attempts) +
            " consecutive respawn attempts (last-good bundle no longer "
            "validates: " + std::string(e.what()) + ")"));
        break;
      }
      continue;  // without respawning: the bundle must validate first
    }
    respawns_.fetch_add(1);
  }

  {
    std::lock_guard<std::mutex> lock(meta_mutex_);
    run_error_ = fatal;
  }
  running_.store(false);

  // The last world is gone for good: everything still queued (or arriving
  // late) must fail rather than hang its client.
  std::exception_ptr down;
  {
    std::lock_guard<std::mutex> lock(meta_mutex_);
    down = run_error_ != nullptr
               ? run_error_
               : std::make_exception_ptr(InvalidArgument(kShuttingDown));
    if (!ready_signalled_) {
      ready_signalled_ = true;
      ready_.set_exception(down);
    }
  }
  scheduler_.stop();
  for (;;) {
    auto rest = scheduler_.take_batch();
    if (rest.empty()) break;
    for (auto& q : rest) q.promise.set_exception(down);
  }
  for (auto& q : inflight_) q.promise.set_exception(down);
  inflight_.clear();
  if (current_reload_.has_value()) {
    current_reload_->promise.set_exception(down);
    current_reload_.reset();
  }
  if (current_ingest_.has_value()) {
    current_ingest_->promise.set_exception(down);
    current_ingest_.reset();
  }
  std::deque<ReloadRequest> reloads;
  std::deque<IngestRequest> ingests;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    reloads.swap(reloads_);
    ingests.swap(ingests_);
  }
  for (auto& r : reloads) r.promise.set_exception(down);
  for (auto& r : ingests) r.promise.set_exception(down);
}

void Server::fail_world_owned(const std::string& reason) {
  const auto err =
      std::make_exception_ptr(WorldFailure("world failure: " + reason));
  std::uint64_t failed = inflight_.size();
  for (auto& q : inflight_) q.promise.set_exception(err);
  inflight_.clear();
  if (current_reload_.has_value()) {
    current_reload_->promise.set_exception(err);
    current_reload_.reset();
    ++failed;
  }
  if (current_ingest_.has_value()) {
    current_ingest_->promise.set_exception(err);
    current_ingest_.reset();
    ++failed;
  }
  in_flight_failed_.fetch_add(failed);
}

void Server::serve_world(ga::Context& ctx) {
  // The bundle this world serves from birth: the original bundle, or
  // wherever the previous world's reloads/ingests had moved to.  Under
  // the process backend the forked ranks inherit the parent's value as of
  // the fork, which is exactly this world's starting point.
  std::filesystem::path served_path;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    served_path = served_path_;
  }

  auto session = query::Session::open(ctx, served_path);
  refresh_metadata(ctx, session);
  if (ctx.rank() == 0) {
    world_healthy_.store(true);
    std::lock_guard<std::mutex> lock(meta_mutex_);
    if (!ready_signalled_) {
      ready_signalled_ = true;
      ready_.set_value();
    }
  }

  for (;;) {
    std::vector<std::uint8_t> command;
    if (ctx.rank() == 0) {
      command = next_command(served_path);
    }
    ga::broadcast_bytes(ctx, command, 0);
    ByteReader in(command);
    const std::uint64_t op = in.u64();

    if (op == kOpExit) break;

    if (op == kOpReload) {
      const std::string path = in.str();
      try {
        auto next = query::Session::open(ctx, path);
        session = std::move(next);
        served_path = path;
        refresh_metadata(ctx, session);
        if (ctx.rank() == 0) {
          {
            std::lock_guard<std::mutex> lock(control_mutex_);
            served_path_ = served_path;
          }
          cache_.invalidate_all();
          reload_count_.fetch_add(1);
          current_reload_->promise.set_value();
          current_reload_.reset();
        }
      } catch (const ProtocolError&) {
        throw;  // world aborted — the supervisor owns recovery
      } catch (const Error&) {
        // Every rank parsed the same broadcast image, so the throw is
        // symmetric: the old session keeps serving.
        if (ctx.rank() == 0) {
          current_reload_->promise.set_exception(std::current_exception());
          current_reload_.reset();
        }
      }
      continue;
    }

    if (op == kOpIngest) {
      const std::string base = in.str();
      const std::string docs_text = in.str();
      const std::string out = in.str();
      try {
        // The whole delta runs collectively inside the serving world —
        // scan the new documents, extend the base generation, write the
        // next bundle — then the live Session swaps through the same
        // open-validate-replace sequence reload uses.
        const corpus::SourceSet docs = parse_ingest_docs(docs_text);
        const corpus::InMemoryReader reader(docs);
        const engine::DeltaReport report = engine::ingest_delta(ctx, base, reader, out);
        auto next = query::Session::open(ctx, out);
        session = std::move(next);
        served_path = out;
        refresh_metadata(ctx, session);
        if (ctx.rank() == 0) {
          {
            std::lock_guard<std::mutex> lock(control_mutex_);
            served_path_ = served_path;
          }
          cache_.invalidate_all();
          ingest_count_.fetch_add(1);
          current_ingest_->promise.set_value(report);
          current_ingest_.reset();
        }
      } catch (const ProtocolError&) {
        throw;  // world aborted — the supervisor owns recovery
      } catch (const Error&) {
        // Symmetric throw (replicated inputs): the old generation keeps
        // serving.
        if (ctx.rank() == 0) {
          current_ingest_->promise.set_exception(std::current_exception());
          current_ingest_.reset();
        }
      }
      continue;
    }

    // kOpSweep: decode and run the batch collectively.
    const std::uint64_t count = in.u64();
    std::vector<query::Query> queries;
    queries.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) queries.push_back(decode_query(in));

    fault::point(fault::sites::kServeSweep);

    query::BatchControl control;
    control.cancel = &cancel_;
    std::vector<query::QueryResult> results;
    std::string sweep_error;
    try {
      results = session.run_batch(queries, control);
    } catch (const ProtocolError&) {
      throw;  // world aborted — the supervisor owns recovery
    } catch (const Error& e) {
      // Validation throws are symmetric (identical queries on every
      // rank); admission filtering makes them rare, not impossible.
      sweep_error = e.what();
    }

    if (ctx.rank() == 0) {
      sweeps_.fetch_add(1);
      if (!sweep_error.empty()) {
        fail_batch(inflight_, sweep_error);
      } else if (results.size() != queries.size()) {
        fail_batch(inflight_, kShuttingDown);  // sweep abandoned mid-flight
      } else {
        queries_swept_.fetch_add(inflight_.size());
        for (std::size_t i = 0; i < inflight_.size(); ++i) {
          cache_.insert(inflight_[i].digest, inflight_[i].key, results[i]);
          inflight_[i].promise.set_value(std::move(results[i]));
        }
      }
      inflight_.clear();
    }
  }
}

std::vector<std::uint8_t> Server::next_command(const std::filesystem::path& served_path) {
  for (;;) {
    // Control commands outrank queued queries.
    std::optional<ReloadRequest> reload;
    std::optional<IngestRequest> ingest;
    {
      std::lock_guard<std::mutex> lock(control_mutex_);
      if (!reloads_.empty()) {
        reload.emplace(std::move(reloads_.front()));
        reloads_.pop_front();
      } else if (!ingests_.empty()) {
        ingest.emplace(std::move(ingests_.front()));
        ingests_.pop_front();
      }
    }
    if (reload.has_value()) {
      try {
        // Serial pre-validation on rank 0: a missing or corrupt file must
        // fail this request, not strand the other ranks mid-broadcast.
        (void)engine::SectionedFile::read(reload->path, engine::kBundleMagic,
                                          engine::kBundleFormatVersion, "bundle");
      } catch (...) {
        reload->promise.set_exception(std::current_exception());
        continue;
      }
      ByteWriter w;
      w.u64(kOpReload);
      w.str(reload->path.string());
      current_reload_ = std::move(reload);
      return std::move(w.bytes);
    }
    if (ingest.has_value()) {
      // Serial pre-read on rank 0: the documents travel in the command
      // blob so every rank scans identical bytes, and an unreadable file
      // fails this request instead of stranding the world.
      std::string docs_text;
      try {
        std::ifstream docs(ingest->docs, std::ios::binary);
        require(docs.good(), "ingest: cannot open documents file " + ingest->docs.string());
        std::ostringstream collect;
        collect << docs.rdbuf();
        docs_text = std::move(collect).str();
      } catch (...) {
        ingest->promise.set_exception(std::current_exception());
        continue;
      }
      ByteWriter w;
      w.u64(kOpIngest);
      w.str(served_path.string());
      w.str(docs_text);
      w.str(ingest->out.string());
      current_ingest_ = std::move(ingest);
      return std::move(w.bytes);
    }

    if (cancel_.load()) {
      // Urgent shutdown: fail everything still queued instead of
      // sweeping it.
      scheduler_.stop();
      for (;;) {
        auto rest = scheduler_.take_batch();
        if (rest.empty()) break;
        fail_batch(rest, kShuttingDown);
      }
      return encode_exit();
    }

    auto batch = scheduler_.take_batch([this] {
      if (cancel_.load()) return true;
      std::lock_guard<std::mutex> lock(control_mutex_);
      return !reloads_.empty() || !ingests_.empty();
    });
    if (!batch.empty()) {
      ByteWriter w;
      w.u64(kOpSweep);
      w.u64(batch.size());
      for (const auto& q : batch) encode_query(w, q.query);
      // Parked before the broadcast: if the world dies anywhere between
      // here and the sweep completing, the supervisor fails these
      // futures with WorldFailure instead of leaving clients hanging.
      inflight_ = std::move(batch);
      return std::move(w.bytes);
    }
    if (scheduler_.stopped() && scheduler_.pending() == 0 && !cancel_.load()) {
      return encode_exit();  // graceful drain complete
    }
    // Interrupted for a control command — loop and pick it up.
  }
}

std::string Server::validate(const query::Query& q) const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  if (q.k < 1) return "query: k must be >= 1";
  switch (q.kind) {
    case query::Query::Kind::kSimilarByProbe:
      if (q.probe.size() != meta_.dimension) {
        return "query: probe dimension mismatch (bundle dimension is " +
               std::to_string(meta_.dimension) + ", got " +
               std::to_string(q.probe.size()) + ")";
      }
      break;
    case query::Query::Kind::kSimilarByDoc:
      if (meta_.doc_ids.find(q.doc_id) == meta_.doc_ids.end()) {
        return "query: unknown doc id " + std::to_string(q.doc_id);
      }
      break;
    case query::Query::Kind::kClusterSummary:
      if (q.cluster < 0 ||
          static_cast<std::size_t>(q.cluster) >= meta_.num_clusters) {
        return "query: cluster " + std::to_string(q.cluster) +
               " out of range (bundle has " + std::to_string(meta_.num_clusters) +
               " clusters)";
      }
      break;
  }
  return {};
}

void Server::fail_batch(std::vector<PendingQuery>& batch, const std::string& why) {
  for (auto& q : batch) {
    q.promise.set_exception(std::make_exception_ptr(InvalidArgument(why)));
  }
  batch.clear();
}

std::future<query::QueryResult> Server::submit(query::Query q) {
  const std::string why = validate(q);
  if (!why.empty()) {
    rejected_.fetch_add(1);
    std::promise<query::QueryResult> p;
    p.set_exception(std::make_exception_ptr(InvalidArgument(why)));
    return p.get_future();
  }
  auto key = query_key_bytes(q);
  const std::uint64_t digest = engine::fnv1a64(key.data(), key.size());
  if (auto hit = cache_.lookup(digest, key)) {
    std::promise<query::QueryResult> p;
    p.set_value(std::move(*hit));
    return p.get_future();
  }
  return scheduler_.submit(std::move(q), digest, std::move(key));
}

std::future<void> Server::reload(std::filesystem::path new_bundle) {
  ReloadRequest request;
  request.path = std::move(new_bundle);
  auto future = request.promise.get_future();
  if (!running_.load()) {
    request.promise.set_exception(
        std::make_exception_ptr(InvalidArgument(kShuttingDown)));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    reloads_.push_back(std::move(request));
  }
  scheduler_.wake();
  return future;
}

std::future<engine::DeltaReport> Server::ingest(std::filesystem::path docs_file,
                                                std::filesystem::path out_bundle) {
  IngestRequest request;
  request.docs = std::move(docs_file);
  request.out = std::move(out_bundle);
  auto future = request.promise.get_future();
  if (!running_.load()) {
    request.promise.set_exception(
        std::make_exception_ptr(InvalidArgument(kShuttingDown)));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    ingests_.push_back(std::move(request));
  }
  scheduler_.wake();
  return future;
}

void Server::stop() {
  scheduler_.stop();
}

void Server::stop_now() {
  cancel_.store(true);
  scheduler_.stop();
}

void Server::join() {
  if (world_thread_.joinable()) world_thread_.join();
  std::lock_guard<std::mutex> lock(meta_mutex_);
  if (run_error_ != nullptr && !joined_) {
    joined_ = true;
    std::rethrow_exception(run_error_);
  }
}

ServerStats Server::stats() const {
  ServerStats out;
  out.backend = ga::backend_name(options_.backend);
  out.world_size = static_cast<std::uint64_t>(options_.procs);
  out.sweeps = sweeps_.load();
  out.queries_swept = queries_swept_.load();
  out.rejected = rejected_.load();
  out.reloads = reload_count_.load();
  out.ingests = ingest_count_.load();
  out.generation = generation_.load();
  out.scheduler = scheduler_.stats();
  out.cache = cache_.stats();
  out.failures.world_failures = world_failures_.load();
  out.failures.respawns = respawns_.load();
  out.failures.in_flight_failed = in_flight_failed_.load();
  out.failures.client_retries = client_retries_.load();
  {
    std::lock_guard<std::mutex> lock(meta_mutex_);
    out.failures.last_failure = last_failure_;
  }
  return out;
}

std::uint64_t Server::num_documents() const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  return meta_.num_documents;
}

std::size_t Server::num_clusters() const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  return meta_.num_clusters;
}

std::size_t Server::dimension() const {
  std::lock_guard<std::mutex> lock(meta_mutex_);
  return meta_.dimension;
}

void Server::refresh_metadata(ga::Context& ctx, query::Session& session) {
  const auto& local_ids = session.bundle().signatures.doc_ids;
  const auto all_ids =
      ctx.allgatherv(std::span<const std::uint64_t>(local_ids));
  if (ctx.rank() == 0) {
    std::lock_guard<std::mutex> lock(meta_mutex_);
    meta_.num_documents = session.num_documents();
    meta_.dimension = session.dimension();
    meta_.num_clusters = session.num_clusters();
    meta_.doc_ids.clear();
    meta_.doc_ids.insert(all_ids.begin(), all_ids.end());
    generation_.store(session.generation());
  }
}

}  // namespace sva::serve
