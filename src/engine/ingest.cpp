#include "sva/engine/ingest.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>

#include "sva/index/shard_merge.hpp"
#include "sva/util/error.hpp"
#include "sva/util/log.hpp"

namespace sva::engine {

namespace {

using Range = std::pair<std::size_t, std::size_t>;
using Records = std::vector<text::ScannedRecord>;

Range overlap(Range a, Range b) {
  const std::size_t begin = std::max(a.first, b.first);
  return {begin, std::max(begin, std::min(a.second, b.second))};
}

void put_u64(std::vector<std::uint32_t>& out, std::uint64_t v) {
  out.push_back(static_cast<std::uint32_t>(v));
  out.push_back(static_cast<std::uint32_t>(v >> 32));
}

/// Wire form of records on their way to their owner, in 32-bit words:
/// per record its doc id, raw bytes (two words each) and field count,
/// then per field its type, term count and shard-canonical term ids.
void encode_records(std::span<const text::ScannedRecord> records,
                    std::vector<std::uint32_t>& out) {
  for (const auto& rec : records) {
    put_u64(out, rec.doc_id);
    put_u64(out, rec.raw_bytes);
    out.push_back(static_cast<std::uint32_t>(rec.fields.size()));
    for (const auto& f : rec.fields) {
      out.push_back(static_cast<std::uint32_t>(f.type));
      out.push_back(static_cast<std::uint32_t>(f.terms.size()));
      for (const auto t : f.terms) out.push_back(static_cast<std::uint32_t>(t));
    }
  }
}

/// Decodes `count` records of `in` from `pos` on, appending them to `out`.
void decode_records(std::span<const std::uint32_t> in, std::size_t count, std::size_t& pos,
                    Records& out) {
  const auto take = [&](std::size_t words) {
    if (in.size() - pos < words) {
      throw ProtocolError("ingest_sharded: truncated record exchange");
    }
    const std::size_t at = pos;
    pos += words;
    return at;
  };
  const auto u64_at = [&](std::size_t at) {
    return static_cast<std::uint64_t>(in[at]) | (static_cast<std::uint64_t>(in[at + 1]) << 32);
  };
  for (std::size_t i = 0; i < count; ++i) {
    text::ScannedRecord rec;
    const std::size_t head = take(5);
    rec.doc_id = u64_at(head);
    rec.raw_bytes = u64_at(head + 2);
    rec.fields.resize(in[head + 4]);
    for (auto& f : rec.fields) {
      const std::size_t field = take(2);
      f.type = static_cast<std::int32_t>(in[field]);
      const std::size_t terms = take(in[field + 1]);
      f.terms.assign(in.begin() + static_cast<std::ptrdiff_t>(terms),
                     in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    out.push_back(std::move(rec));
  }
}

/// Collective: hands the records this rank scanned (its slice of the
/// shard, `slices[rank]`) to their owners under the full-corpus partition
/// `owners`, and returns the records this rank owns in document order.
/// Both partitions are contiguous and ascending, so an owner receives its
/// records in order from one gatherv; owners whose records all sit in
/// their own slice exchange nothing.
Records rehome_records(ga::Context& ctx, Records held, const std::vector<Range>& slices,
                       const std::vector<Range>& owners) {
  const auto me = static_cast<std::size_t>(ctx.rank());
  const std::size_t nprocs = slices.size();
  // This rank's records of `range`, as positions in `held`.
  const auto held_part = [&](Range range) -> Range {
    const Range part = overlap(slices[me], range);
    if (part.second == part.first) return {0, 0};
    return {part.first - slices[me].first, part.second - slices[me].first};
  };
  const auto move_part = [&](Range part, Records& out) {
    const auto first = held.begin() + static_cast<std::ptrdiff_t>(part.first);
    const auto last = held.begin() + static_cast<std::ptrdiff_t>(part.second);
    out.insert(out.end(), std::make_move_iterator(first), std::make_move_iterator(last));
  };

  Records owned;
  std::vector<std::uint32_t> payload;
  for (std::size_t o = 0; o < nprocs; ++o) {
    bool moves = false;
    for (std::size_t r = 0; r < nprocs; ++r) {
      const Range piece = overlap(slices[r], owners[o]);
      moves = moves || (r != o && piece.second > piece.first);
    }
    const Range mine = held_part(owners[o]);
    if (!moves) {
      if (o == me) move_part(mine, owned);
      continue;
    }
    payload.clear();
    if (o != me) {
      const std::span<const text::ScannedRecord> all(held);
      encode_records(all.subspan(mine.first, mine.second - mine.first), payload);
    }
    const std::vector<std::uint32_t> gathered =
        ctx.gatherv(std::span<const std::uint32_t>(payload), static_cast<int>(o));
    if (o != me) continue;
    std::size_t pos = 0;
    for (std::size_t r = 0; r < nprocs; ++r) {
      if (r == me) {
        move_part(mine, owned);
      } else {
        const Range piece = overlap(slices[r], owners[o]);
        decode_records(gathered, piece.second - piece.first, pos, owned);
      }
    }
    if (pos != gathered.size()) throw ProtocolError("ingest_sharded: record exchange overran");
  }
  return owned;
}

}  // namespace

IngestState ingest_single_pass(ga::Context& ctx, const corpus::SourceSet& sources,
                               const text::TokenizerConfig& tokenizer_config,
                               const index::IndexingConfig& indexing_config,
                               ga::StageTimer& timer) {
  require(sources.size() > 0, "ingest: empty source set");

  IngestState state;
  text::ScanResult scan = text::scan_sources(ctx, sources, tokenizer_config);
  state.vocabulary = scan.vocabulary;
  state.field_type_names = std::move(scan.field_type_names);
  state.records = std::move(scan.records);
  state.forward = std::move(scan.forward);
  state.num_records = state.forward.num_records;
  state.num_terms = state.vocabulary->size();
  state.total_term_occurrences = state.forward.total_terms;
  timer.mark("scan");

  require(state.num_terms > 0, "ingest: empty vocabulary after scanning");

  index::IndexingResult indexing =
      index::build_inverted_index(ctx, state.forward, state.num_terms, indexing_config);
  state.index = std::move(indexing.index);
  state.stats = std::move(indexing.stats);
  state.load_balance = std::move(indexing.load_balance);
  timer.mark("index");
  return state;
}

IngestState ingest_sharded(ga::Context& ctx, const corpus::CorpusReader& reader,
                           const text::TokenizerConfig& tokenizer_config,
                           const index::IndexingConfig& indexing_config,
                           const corpus::ShardingConfig& sharding, ga::StageTimer& timer) {
  require(reader.size() > 0, "ingest: empty source set");

  // Ownership is fixed by the full-corpus byte partition; the shard plan
  // only bounds how much raw text is resident at once.  Every rank scans
  // a byte-balanced slice of each shard, and the scanned records then
  // move to their owners.
  const std::vector<std::size_t> doc_sizes = reader.doc_sizes();
  const auto owner_ranges = corpus::partition_sizes_by_bytes(doc_sizes, ctx.nprocs());
  const auto shards = corpus::plan_shards(reader, sharding);
  const std::size_t num_shards = shards.size();

  std::vector<index::ShardBlobs> blobs(ctx.rank() == 0 ? num_shards : 0);
  std::vector<Records> shard_records(num_shards);
  index::LoadBalanceReport load_balance;
  load_balance.busy_seconds.assign(static_cast<std::size_t>(ctx.nprocs()), 0.0);
  load_balance.loads_claimed.assign(static_cast<std::size_t>(ctx.nprocs()), 0);

  for (std::size_t s = 0; s < num_shards; ++s) {
    // Scope holds the shard's global arrays; everything survives the
    // scope as a compact extract + this rank's records.
    const auto slices = corpus::slice_shard(doc_sizes, shards[s], ctx.nprocs());
    text::ScanResult scan = text::scan_shard(ctx, reader, shards[s], slices, tokenizer_config);
    require(scan.vocabulary->size() <= UINT32_MAX,
            "ingest_sharded: shard vocabulary exceeds 32-bit term ids");
    shard_records[s] = rehome_records(ctx, std::move(scan.records), slices, owner_ranges);
    timer.mark("scan");

    index::ShardExtract extract;
    if (scan.vocabulary->size() > 0) {
      index::IndexingResult indexing = index::build_inverted_index(
          ctx, scan.forward, scan.vocabulary->size(), indexing_config);
      for (std::size_t r = 0; r < indexing.load_balance.busy_seconds.size(); ++r) {
        load_balance.busy_seconds[r] += indexing.load_balance.busy_seconds[r];
        load_balance.loads_claimed[r] += indexing.load_balance.loads_claimed[r];
      }
      extract = index::extract_shard(ctx, scan, indexing);
    } else {
      // A shard of token-free documents still contributes its records
      // and the field types they use.
      extract.num_records = shards[s].second - shards[s].first;
      extract.field_type_names = scan.field_type_names;
    }
    timer.mark("index");

    if (ctx.rank() == 0) {
      blobs[s] = {extract.serialize_vocab(), extract.serialize_data()};
    }
    log::debug("engine") << "shard " << (s + 1) << "/" << num_shards << ": "
                         << extract.num_records << " records, " << extract.terms.size()
                         << " terms";
  }

  index::MergedShards merged = index::merge_shards(ctx, blobs, num_shards);
  blobs.clear();

  IngestState state;
  state.vocabulary = merged.vocabulary;
  state.field_type_names = std::move(merged.field_type_names);
  state.stats = std::move(merged.stats);
  state.index = std::move(merged.index);
  state.load_balance = std::move(load_balance);
  state.num_records = merged.num_records;
  state.num_terms = state.vocabulary->size();
  state.total_term_occurrences = merged.total_occurrences;
  state.shards_used = num_shards;
  require(state.num_records == reader.size(),
          "ingest_sharded: merged record count disagrees with the reader");
  require(state.num_terms > 0, "ingest: empty vocabulary after scanning");

  // Rewrite this rank's records from shard-canonical into final canonical
  // ids.  Each shard's records arrive in document order and shards are
  // processed in order, so the concatenation preserves global document
  // order.
  std::size_t total_records = 0;
  for (const auto& recs : shard_records) total_records += recs.size();
  state.records.reserve(total_records);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const auto& term_remap = merged.term_remap[s];
    const auto& type_remap = merged.field_type_remap[s];
    for (auto& rec : shard_records[s]) {
      for (auto& f : rec.fields) {
        f.type = type_remap[static_cast<std::size_t>(f.type)];
        for (auto& t : f.terms) t = term_remap[static_cast<std::size_t>(t)];
      }
      state.records.push_back(std::move(rec));
    }
    shard_records[s].clear();
    shard_records[s].shrink_to_fit();
  }

  // The merged forward product: the same CSR a single-pass scan publishes.
  state.forward = text::build_forward_index(ctx, state.records, state.num_records);
  timer.mark("index");
  return state;
}

}  // namespace sva::engine
