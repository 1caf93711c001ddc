#include "sva/ga/dist_hashmap.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "sva/util/rng.hpp"

namespace sva::ga {

namespace {

// FNV-1a, stable across platforms, used to pick the owning partition.
std::uint64_t term_hash(std::string_view term) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : term) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return mix64(h);
}

}  // namespace

DistHashmap DistHashmap::create(Context& ctx) {
  auto storage = ctx.collective_create<Storage>([&]() -> std::shared_ptr<Storage> {
    auto s = std::make_shared<Storage>();
    s->nprocs = ctx.nprocs();
    s->shared = ctx.world().transport().shared_address();
    s->partitions = std::vector<Partition>(static_cast<std::size_t>(ctx.nprocs()));
    return s;
  });
  return DistHashmap(std::move(storage));
}

int DistHashmap::owner_of(std::string_view term) const {
  return static_cast<int>(term_hash(term) % static_cast<std::uint64_t>(storage_->nprocs));
}

void DistHashmap::require_shared(const char* what) const {
  if (!storage_->shared) {
    throw ProtocolError(
        std::string("DistHashmap::") + what +
        " requires a shared address space (thread backend): under the process and "
        "socket backends each rank holds only its own terms until the collective "
        "finalize; use insert_batch and finalize instead");
  }
}

std::int64_t DistHashmap::insert_or_get(Context& ctx, std::string_view term) {
  require_shared("insert_or_get");
  const int part = owner_of(term);
  auto& p = storage_->partitions[static_cast<std::size_t>(part)];
  const bool remote = part != ctx.rank();
  ctx.charge(ctx.model().onesided(term.size() + sizeof(std::int64_t), remote) +
             ctx.model().rpc_service);

  std::lock_guard<std::mutex> lock(p.mutex);
  if (auto it = p.ids.find(term); it != p.ids.end()) return encode(it->second, part);
  const auto it =
      p.ids.emplace(std::string(term), static_cast<std::int64_t>(p.insertion_order.size()))
          .first;
  p.insertion_order.push_back(it->first);
  return encode(it->second, part);
}

namespace {

/// Reusable per-rank (per-thread) request grouping for insert_batch: a
/// counting sort by owning partition, so the hot path allocates nothing
/// once the high-water mark is reached.
struct BatchScratch {
  std::vector<int> owner;              // position -> owning partition
  std::vector<std::size_t> begin;      // partition -> first slot in positions
  std::vector<std::size_t> fill;       // partition -> next free slot
  std::vector<std::size_t> positions;  // positions grouped by partition
  std::vector<std::size_t> bytes;      // partition -> request payload bytes
};

}  // namespace

std::vector<std::int64_t> DistHashmap::insert_batch_local(
    Context& ctx, std::span<const std::string_view> terms) {
  // Charge the thread path's per-partition RPC accounting, so the modeled
  // insert cost does not depend on the backend; finalize's allgather of
  // the sorted runs charges the communication that actually happens.
  {
    static thread_local std::vector<std::size_t> bytes_per_part;
    static thread_local std::vector<std::size_t> count_per_part;
    const auto nprocs = static_cast<std::size_t>(storage_->nprocs);
    bytes_per_part.assign(nprocs, 0);
    count_per_part.assign(nprocs, 0);
    for (const auto& term : terms) {
      const auto o = static_cast<std::size_t>(owner_of(term));
      bytes_per_part[o] += term.size() + sizeof(std::int64_t);
      ++count_per_part[o];
    }
    double cost = 0.0;
    for (std::size_t part = 0; part < nprocs; ++part) {
      if (count_per_part[part] == 0) continue;
      const bool remote = static_cast<int>(part) != ctx.rank();
      cost += ctx.model().onesided(bytes_per_part[part], remote) +
              ctx.model().rpc_service * static_cast<double>(count_per_part[part]);
    }
    ctx.charge(cost);
  }

  auto& st = *storage_;
  std::vector<std::int64_t> out;
  out.reserve(terms.size());
  for (const auto& term : terms) {
    out.push_back(encode(static_cast<std::int64_t>(st.own_ends.size()), ctx.rank()));
    st.own_bytes.append(term);
    st.own_ends.push_back(st.own_bytes.size());
  }
  return out;
}

std::vector<std::int64_t> DistHashmap::insert_batch(Context& ctx,
                                                    std::span<const std::string_view> terms) {
  if (!storage_->shared) return insert_batch_local(ctx, terms);
  // Group requests by partition so each RPC channel — and each partition
  // lock — is used exactly once per call; this is the aggregation ARMCI
  // encourages and what makes insertion scale.
  const auto nprocs = static_cast<std::size_t>(storage_->nprocs);
  static thread_local BatchScratch scratch;
  scratch.owner.resize(terms.size());
  scratch.positions.resize(terms.size());
  scratch.begin.assign(nprocs + 1, 0);
  scratch.bytes.assign(nprocs, 0);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const int o = owner_of(terms[i]);
    scratch.owner[i] = o;
    ++scratch.begin[static_cast<std::size_t>(o) + 1];
    scratch.bytes[static_cast<std::size_t>(o)] += terms[i].size() + sizeof(std::int64_t);
  }
  for (std::size_t part = 0; part < nprocs; ++part) {
    scratch.begin[part + 1] += scratch.begin[part];
  }
  scratch.fill.assign(scratch.begin.begin(), scratch.begin.end() - 1);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    scratch.positions[scratch.fill[static_cast<std::size_t>(scratch.owner[i])]++] = i;
  }

  std::vector<std::int64_t> out(terms.size(), -1);
  for (std::size_t part = 0; part < nprocs; ++part) {
    const std::size_t first = scratch.begin[part];
    const std::size_t last = scratch.begin[part + 1];
    if (first == last) continue;
    auto& p = storage_->partitions[part];
    const bool remote = static_cast<int>(part) != ctx.rank();

    ctx.charge(ctx.model().onesided(scratch.bytes[part], remote) +
               ctx.model().rpc_service * static_cast<double>(last - first));

    std::lock_guard<std::mutex> lock(p.mutex);
    for (std::size_t slot = first; slot < last; ++slot) {
      const std::size_t i = scratch.positions[slot];
      if (auto it = p.ids.find(terms[i]); it != p.ids.end()) {
        out[i] = encode(it->second, static_cast<int>(part));
        continue;
      }
      const auto it = p.ids
                          .emplace(std::string(terms[i]),
                                   static_cast<std::int64_t>(p.insertion_order.size()))
                          .first;
      p.insertion_order.push_back(it->first);
      out[i] = encode(it->second, static_cast<int>(part));
    }
  }
  return out;
}

std::vector<std::int64_t> DistHashmap::insert_batch(Context& ctx,
                                                    const std::vector<std::string>& terms) {
  std::vector<std::string_view> views(terms.begin(), terms.end());
  return insert_batch(ctx, std::span<const std::string_view>(views));
}

std::optional<std::int64_t> DistHashmap::find(Context& ctx, std::string_view term) const {
  require_shared("find");
  const int part = owner_of(term);
  auto& p = storage_->partitions[static_cast<std::size_t>(part)];
  ctx.charge(ctx.model().onesided(term.size() + sizeof(std::int64_t), part != ctx.rank()) +
             ctx.model().rpc_service);
  std::lock_guard<std::mutex> lock(p.mutex);
  auto it = p.ids.find(term);
  if (it == p.ids.end()) return std::nullopt;
  return encode(it->second, part);
}

std::size_t DistHashmap::size_estimate() const {
  require_shared("size_estimate");
  std::size_t total = 0;
  for (auto& p : storage_->partitions) {
    std::lock_guard<std::mutex> lock(p.mutex);
    total += p.insertion_order.size();
  }
  return total;
}

DistHashmap::Finalized DistHashmap::finalize(Context& ctx) {
  if (!storage_->shared) return finalize_runs(ctx);
  // Charge a gather of every partition's contents to rank 0 plus a
  // broadcast of the canonical vocabulary; the heavy lifting (sort,
  // remap) happens once and is shared, so we account its compute on rank
  // 0's clock via the collective_create factory running there.
  std::size_t local_bytes = 0;
  {
    auto& p = storage_->partitions[static_cast<std::size_t>(ctx.rank())];
    std::lock_guard<std::mutex> lock(p.mutex);
    for (const auto& term : p.insertion_order) {
      local_bytes += term.size() + sizeof(std::int64_t);
    }
  }
  ctx.charge(ctx.model().reduce(ctx.nprocs(), std::max<std::size_t>(local_bytes, 1)) +
             ctx.model().broadcast(ctx.nprocs(), std::max<std::size_t>(local_bytes, 1)));

  struct Built {
    std::shared_ptr<Vocabulary> vocab;
    std::vector<std::int64_t> remap;
  };
  auto built = ctx.collective_create<Built>([&]() -> std::shared_ptr<Built> {
    auto b = std::make_shared<Built>();
    b->vocab = std::make_shared<Vocabulary>();

    // Collect (term, provisional id) from all partitions.
    std::vector<std::pair<std::string, std::int64_t>> entries;
    std::int64_t max_provisional = -1;
    for (std::size_t part = 0; part < storage_->partitions.size(); ++part) {
      auto& p = storage_->partitions[part];
      std::lock_guard<std::mutex> lock(p.mutex);
      for (std::size_t i = 0; i < p.insertion_order.size(); ++i) {
        const std::int64_t provisional = encode(static_cast<std::int64_t>(i),
                                                static_cast<int>(part));
        entries.emplace_back(p.insertion_order[i], provisional);
        max_provisional = std::max(max_provisional, provisional);
      }
    }

    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b2) { return a.first < b2.first; });

    b->remap.assign(static_cast<std::size_t>(max_provisional + 1), -1);
    b->vocab->terms.reserve(entries.size());
    for (std::size_t canonical = 0; canonical < entries.size(); ++canonical) {
      b->vocab->terms.push_back(entries[canonical].first);
      b->remap[static_cast<std::size_t>(entries[canonical].second)] =
          static_cast<std::int64_t>(canonical);
    }
    return b;
  });

  Finalized out;
  out.vocabulary = built->vocab;
  out.remap = built->remap;  // copy: each rank owns its remap table
  return out;
}

DistHashmap::Finalized DistHashmap::finalize_runs(Context& ctx) {
  // Sort and dedup this rank's own terms into a run, allgather the runs
  // (u32 length prefix + bytes per term), and merge them.  Every rank
  // merges the same runs in the same order, so the replicas agree.
  const Storage& st = *storage_;
  const std::size_t n = st.own_ends.size();
  const auto term_at = [&st](std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : st.own_ends[i - 1];
    return std::string_view(st.own_bytes.data() + begin, st.own_ends[i] - begin);
  };
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return term_at(a) < term_at(b); });

  std::vector<char> payload;
  payload.reserve(st.own_bytes.size() + n * sizeof(std::uint32_t));
  std::vector<std::size_t> run_index(n);  // local index -> position in the run
  std::size_t run_size = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::string_view term = term_at(order[k]);
    if (k == 0 || term != term_at(order[k - 1])) {
      require(term.size() <= UINT32_MAX, "DistHashmap::finalize: term too long");
      const auto len = static_cast<std::uint32_t>(term.size());
      const char* lp = reinterpret_cast<const char*>(&len);
      payload.insert(payload.end(), lp, lp + sizeof(len));
      payload.insert(payload.end(), term.begin(), term.end());
      ++run_size;
    }
    run_index[order[k]] = run_size - 1;
  }

  const std::vector<std::uint64_t> sizes =
      ctx.allgather(static_cast<std::uint64_t>(payload.size()));
  const std::vector<char> all =
      ctx.allgatherv(std::span<const char>(payload.data(), payload.size()));

  std::vector<std::vector<std::string_view>> runs(static_cast<std::size_t>(ctx.nprocs()));
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t end = cursor + static_cast<std::size_t>(sizes[r]);
    require(end <= all.size(), "DistHashmap::finalize: corrupt run payload");
    while (cursor < end) {
      std::uint32_t len = 0;
      require(cursor + sizeof(len) <= end, "DistHashmap::finalize: corrupt length prefix");
      std::memcpy(&len, all.data() + cursor, sizeof(len));
      cursor += sizeof(len);
      require(cursor + len <= end, "DistHashmap::finalize: corrupt term payload");
      runs[r].emplace_back(all.data() + cursor, len);
      cursor += len;
    }
  }

  std::vector<std::vector<std::int64_t>> positions;
  auto vocab = std::make_shared<Vocabulary>();
  vocab->terms = merge_sorted_runs(runs, positions);

  Finalized out;
  out.vocabulary = std::move(vocab);
  const auto& mine = positions[static_cast<std::size_t>(ctx.rank())];
  const auto slot = [&](std::size_t i) {
    return static_cast<std::size_t>(encode(static_cast<std::int64_t>(i), ctx.rank()));
  };
  out.remap.assign(n == 0 ? 0 : slot(n - 1) + 1, -1);
  for (std::size_t i = 0; i < n; ++i) out.remap[slot(i)] = mine[run_index[i]];
  return out;
}

std::vector<std::string> merge_sorted_runs(std::span<const std::vector<std::string_view>> runs,
                                           std::vector<std::vector<std::int64_t>>& positions) {
  positions.assign(runs.size(), {});
  std::size_t longest = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    positions[r].resize(runs[r].size());
    longest = std::max(longest, runs[r].size());
  }
  // Min-heap of runs keyed by their head term; equal heads pop one after
  // another, so each union term is appended once.
  std::vector<std::size_t> cursor(runs.size(), 0);
  const auto after = [&](std::size_t a, std::size_t b) {
    const int c = runs[a][cursor[a]].compare(runs[b][cursor[b]]);
    return c != 0 ? c > 0 : a > b;
  };
  std::vector<std::size_t> heap;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.push_back(r);
  }
  std::make_heap(heap.begin(), heap.end(), after);

  std::vector<std::string> merged;
  merged.reserve(longest);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const std::size_t r = heap.back();
    const std::string_view term = runs[r][cursor[r]];
    if (merged.empty() || merged.back() != term) merged.emplace_back(term);
    positions[r][cursor[r]] = static_cast<std::int64_t>(merged.size() - 1);
    if (++cursor[r] == runs[r].size()) {
      heap.pop_back();
      continue;
    }
    if (!(term < runs[r][cursor[r]])) {
      throw InvalidArgument("merge_sorted_runs: run " + std::to_string(r) +
                            " is not sorted and duplicate-free");
    }
    std::push_heap(heap.begin(), heap.end(), after);
  }
  return merged;
}

}  // namespace sva::ga
