// Distributed hashmap: the ARMCI-RPC-backed global vocabulary map of §3.2.
//
// Terms are partitioned by hash across ranks; inserting a term issues an
// RPC to the owning partition, which assigns a *provisional* global term
// ID unique across the world.  Because provisional IDs depend on arrival
// order (exactly as in the paper's implementation), a collective
// finalize() pass canonicalizes the vocabulary — sorting terms
// lexicographically and producing a provisional→canonical remap — so that
// every downstream product is bit-reproducible for any processor count.
//
// Backends without a shared address space (process, socket) cannot host
// the shared partitions.  There each rank only records its own terms, and
// finalize() sorts them into a run, allgathers the runs and merges them
// into the same canonical vocabulary.
#pragma once

#include <cstdint>
#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sva/ga/runtime.hpp"

namespace sva::ga {

/// Transparent string hashing so string_view probes never materialize a
/// std::string.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Canonicalized global vocabulary (replicated; immutable after finalize).
struct Vocabulary {
  /// All unique terms, lexicographically sorted; canonical ID = position.
  std::vector<std::string> terms;

  [[nodiscard]] std::size_t size() const { return terms.size(); }

  /// Canonical ID of `term` (a binary search of the sorted terms), or -1.
  [[nodiscard]] std::int64_t id_of(std::string_view term) const {
    const auto it = std::lower_bound(terms.begin(), terms.end(), term);
    return it != terms.end() && *it == term ? it - terms.begin() : -1;
  }
};

/// Merges lexicographically sorted, duplicate-free runs into their sorted
/// union.  `positions[r][i]` receives the union position of `runs[r][i]`.
std::vector<std::string> merge_sorted_runs(std::span<const std::vector<std::string_view>> runs,
                                           std::vector<std::vector<std::int64_t>>& positions);

class DistHashmap {
 public:
  /// Collective: creates an empty map with one partition per rank.
  static DistHashmap create(Context& ctx);

  /// Inserts `term` (or looks it up) and returns its provisional global
  /// ID.  One-sided: no cooperation from the owner rank.  Thread-safe.
  ///
  /// Thread backend only.  Under the process and socket backends no rank
  /// can see another rank's terms before finalize(), so no ID could be
  /// answered one-sidedly; this throws ProtocolError there — use
  /// insert_batch.
  std::int64_t insert_or_get(Context& ctx, std::string_view term);

  /// Batched insert: groups terms by owning partition so each partition's
  /// lock and RPC channel is visited once.  Returns provisional IDs
  /// aligned with `terms`.  The string_view overload is the scanner's
  /// fast path: callers keep their spellings in a TokenArena and never
  /// materialize per-term std::strings on the requesting side.
  ///
  /// Under the process and socket backends the call is rank-local: the
  /// rank copies its terms and numbers them in insertion order, so a term
  /// inserted twice gets two provisional IDs.  finalize() maps both to the
  /// term's one canonical ID, the same one the thread backend assigns.
  std::vector<std::int64_t> insert_batch(Context& ctx, std::span<const std::string_view> terms);
  std::vector<std::int64_t> insert_batch(Context& ctx,
                                         const std::vector<std::string>& terms);

  /// Looks a term up without inserting.  Returns nullopt when absent.
  /// Thread backend only: under the process and socket backends no rank
  /// holds the whole map before finalize(), so this throws ProtocolError.
  std::optional<std::int64_t> find(Context& ctx, std::string_view term) const;

  /// Total number of unique terms across all partitions (one-sided scan;
  /// call after scanning completes or expect a racy snapshot).  Thread
  /// backend only, like find().
  [[nodiscard]] std::size_t size_estimate() const;

  /// Collective: freezes the map, sorts the global vocabulary, and
  /// returns (replicated) the canonical vocabulary plus a provisional→
  /// canonical remap usable via remap_id().  Under the process and socket
  /// backends the remap covers this rank's provisional IDs only.
  struct Finalized {
    std::shared_ptr<const Vocabulary> vocabulary;
    /// provisional ID → canonical ID (dense vector; see provisional
    /// encoding below; -1 where no ID was handed out).
    std::vector<std::int64_t> remap;

    [[nodiscard]] std::int64_t remap_id(std::int64_t provisional) const {
      return remap[static_cast<std::size_t>(provisional)];
    }
  };
  Finalized finalize(Context& ctx);

  /// Owning partition (== rank) of a term.
  [[nodiscard]] int owner_of(std::string_view term) const;

 private:
  struct Partition {
    std::mutex mutex;
    // term -> local index; transparent hashing so request-side
    // string_views probe without materializing std::strings.
    std::unordered_map<std::string, std::int64_t, StringHash, std::equal_to<>> ids;
    std::vector<std::string> insertion_order;  // local index -> term
  };
  struct Storage {
    int nprocs = 1;
    bool shared = true;  // one address space: the partitions are the map
    std::vector<Partition> partitions;
    // Process and socket backends: this rank's inserted terms, in
    // insertion order, packed into one buffer.
    std::string own_bytes;
    std::vector<std::size_t> own_ends;  // local index -> end offset in own_bytes
  };

  explicit DistHashmap(std::shared_ptr<Storage> storage) : storage_(std::move(storage)) {}

  /// Throws ProtocolError naming `what` unless the partitions are shared.
  void require_shared(const char* what) const;

  /// Process and socket backends: record this rank's terms.
  std::vector<std::int64_t> insert_batch_local(Context& ctx,
                                               std::span<const std::string_view> terms);
  /// Process and socket backends: merge every rank's sorted run.
  Finalized finalize_runs(Context& ctx);

  // Provisional ID encoding: local_index * nprocs + partition.  Unique
  // world-wide without any cross-partition coordination.
  [[nodiscard]] std::int64_t encode(std::int64_t local_index, int partition) const {
    return local_index * storage_->nprocs + partition;
  }

  std::shared_ptr<Storage> storage_;
};

}  // namespace sva::ga
