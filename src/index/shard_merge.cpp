#include "sva/index/shard_merge.hpp"

#include <algorithm>
#include <string_view>

#include "sva/util/bytes.hpp"
#include "sva/util/error.hpp"

namespace sva::index {

std::vector<std::uint8_t> ShardExtract::serialize_vocab() const {
  ByteWriter out;
  out.u64(terms.size());
  for (const auto& t : terms) out.str(t);
  out.u64(field_type_names.size());
  for (const auto& f : field_type_names) out.str(f);
  return std::move(out.bytes);
}

std::vector<std::uint8_t> ShardExtract::serialize_data() const {
  require(term_frequency.size() == terms.size() && doc_frequency.size() == terms.size(),
          "ShardExtract: statistics misaligned with vocabulary");
  ByteWriter out;
  out.u64(num_records);
  out.u64(total_occurrences);
  out.u64(terms.size());
  for (const auto v : term_frequency) out.u64(static_cast<std::uint64_t>(v));
  for (const auto v : doc_frequency) out.u64(static_cast<std::uint64_t>(v));
  out.u64(postings.total_postings);
  // Offsets are monotone; store the per-term byte lengths instead.
  for (std::size_t t = 0; t < terms.size(); ++t) {
    out.u64(postings.offsets.empty() ? 0 : postings.offsets[t + 1] - postings.offsets[t]);
  }
  out.u64(postings.bytes.size());
  out.raw(postings.bytes.data(), postings.bytes.size());
  return std::move(out.bytes);
}

void ShardExtract::deserialize_vocab(std::span<const std::uint8_t> bytes, ShardExtract& out) {
  ByteReader in(bytes);
  const std::uint64_t n_terms = in.u64();
  require_format(n_terms <= bytes.size(), "shard extract: implausible term count");
  out.terms.clear();
  out.terms.reserve(static_cast<std::size_t>(n_terms));
  for (std::uint64_t i = 0; i < n_terms; ++i) out.terms.push_back(in.str());
  const std::uint64_t n_fields = in.u64();
  require_format(n_fields <= bytes.size(), "shard extract: implausible field-type count");
  out.field_type_names.clear();
  for (std::uint64_t i = 0; i < n_fields; ++i) out.field_type_names.push_back(in.str());
  in.expect_done();
}

void ShardExtract::deserialize_data(std::span<const std::uint8_t> bytes, ShardExtract& out) {
  ByteReader in(bytes);
  out.num_records = in.u64();
  out.total_occurrences = in.u64();
  const std::uint64_t n_terms = in.u64();
  require_format(n_terms <= bytes.size(), "shard extract: implausible term count");
  const auto n = static_cast<std::size_t>(n_terms);
  out.term_frequency.resize(n);
  for (auto& v : out.term_frequency) v = static_cast<std::int64_t>(in.u64());
  out.doc_frequency.resize(n);
  for (auto& v : out.doc_frequency) v = static_cast<std::int64_t>(in.u64());
  out.postings.num_terms = n_terms;
  out.postings.total_postings = in.u64();
  out.postings.offsets.assign(n + 1, 0);
  for (std::size_t t = 0; t < n; ++t) {
    out.postings.offsets[t + 1] = out.postings.offsets[t] + in.u64();
  }
  const std::uint64_t n_bytes = in.u64();
  require_format(n_bytes == out.postings.offsets.back(),
                 "shard extract: postings byte count mismatch");
  out.postings.bytes.resize(static_cast<std::size_t>(n_bytes));
  in.raw(out.postings.bytes.data(), out.postings.bytes.size());
  in.expect_done();
}

ShardExtract extract_shard(ga::Context& ctx, const text::ScanResult& scan,
                           const IndexingResult& indexing) {
  ShardExtract out;
  out.terms = scan.vocabulary->terms;
  out.field_type_names = scan.field_type_names;
  out.num_records = indexing.stats.num_records;
  out.total_occurrences = indexing.stats.total_occurrences;
  out.term_frequency = indexing.stats.term_frequency.to_vector(ctx);
  out.doc_frequency = indexing.stats.doc_frequency.to_vector(ctx);
  out.postings = compress_record_index(ctx, indexing.index);
  require(out.terms.size() == out.term_frequency.size(),
          "extract_shard: vocabulary/statistics size mismatch");
  return out;
}

MergedShards merge_shards(ga::Context& ctx, std::span<const ShardBlobs> blobs,
                          std::size_t num_shards) {
  constexpr int kRoot = 0;
  MergedShards merged;

  // ---- pass 1: vocabulary union --------------------------------------
  // Shard term lists are held (strings) until the final vocabulary is
  // known, then reduced to integer remaps.
  std::vector<ShardExtract> shard_vocabs(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::vector<std::uint8_t> blob;
    if (ctx.rank() == kRoot) blob = blobs[s].vocab;
    ga::broadcast_bytes(ctx, blob, kRoot);
    ShardExtract::deserialize_vocab(blob, shard_vocabs[s]);
  }

  // Shard vocabularies are sorted and duplicate-free, so their union is a
  // k-way merge, and each shard's remap falls out of the same walk.
  std::vector<std::vector<std::string_view>> term_runs(num_shards);
  std::vector<std::vector<std::string_view>> field_runs(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    term_runs[s].assign(shard_vocabs[s].terms.begin(), shard_vocabs[s].terms.end());
    field_runs[s].assign(shard_vocabs[s].field_type_names.begin(),
                         shard_vocabs[s].field_type_names.end());
  }
  auto vocabulary = std::make_shared<ga::Vocabulary>();
  vocabulary->terms = ga::merge_sorted_runs(term_runs, merged.term_remap);
  std::vector<std::vector<std::int64_t>> field_remap;
  merged.field_type_names = ga::merge_sorted_runs(field_runs, field_remap);
  merged.field_type_remap.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    merged.field_type_remap[s].assign(field_remap[s].begin(), field_remap[s].end());
  }
  term_runs.clear();
  field_runs.clear();
  shard_vocabs.clear();  // free the strings
  merged.vocabulary = vocabulary;

  // ---- pass 2: statistics + postings ---------------------------------
  const std::size_t n_terms = vocabulary->size();
  merged.stats.term_frequency = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(n_terms, 1));
  merged.stats.doc_frequency = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(n_terms, 1));
  merged.stats.num_terms = n_terms;

  // Every rank accumulates the full (replicated) frequency vectors — the
  // same transient the single-pass indexer's counting phase holds — and
  // collects decoded postings only for the final-term block it owns.
  std::vector<std::int64_t> term_freq(n_terms, 0);
  std::vector<std::int64_t> doc_freq(n_terms, 0);
  // Clamp the block to the real term count: the arrays are created with
  // at least one row even for an empty vocabulary.
  const auto block = merged.stats.term_frequency.local_row_range(ctx);
  const std::size_t tb = std::min(block.first, n_terms);
  const std::size_t te = std::min(block.second, n_terms);
  const std::size_t my_terms = te > tb ? te - tb : 0;
  std::vector<std::vector<std::int64_t>> my_postings(my_terms);

  for (std::size_t s = 0; s < num_shards; ++s) {
    std::vector<std::uint8_t> blob;
    if (ctx.rank() == kRoot) blob = blobs[s].data;
    ga::broadcast_bytes(ctx, blob, kRoot);
    ShardExtract shard;
    ShardExtract::deserialize_data(blob, shard);
    blob.clear();
    blob.shrink_to_fit();

    const auto& remap = merged.term_remap[s];
    require(shard.term_frequency.size() == remap.size(),
            "merge_shards: shard data/vocabulary size mismatch");
    merged.num_records += shard.num_records;
    merged.total_occurrences += shard.total_occurrences;
    for (std::size_t t = 0; t < remap.size(); ++t) {
      const auto final_id = static_cast<std::size_t>(remap[t]);
      term_freq[final_id] += shard.term_frequency[t];
      doc_freq[final_id] += shard.doc_frequency[t];
      if (final_id >= tb && final_id < te) {
        const auto decoded = shard.postings.postings_of(t);
        auto& run = my_postings[final_id - tb];
        run.insert(run.end(), decoded.begin(), decoded.end());
      }
    }
  }

  merged.stats.num_records = merged.num_records;
  merged.stats.total_occurrences = merged.total_occurrences;
  if (my_terms > 0) {
    merged.stats.term_frequency.put(
        ctx, tb, std::span<const std::int64_t>(term_freq.data() + tb, my_terms));
    merged.stats.doc_frequency.put(
        ctx, tb, std::span<const std::int64_t>(doc_freq.data() + tb, my_terms));
  }

  // ---- merged term→record CSR ----------------------------------------
  // Records are disjoint across shards, so each term's merged run is the
  // concatenation of its shard runs; sort once to canonicalize.
  std::vector<std::int64_t> local_postings;
  std::vector<std::int64_t> local_counts(my_terms, 0);
  for (std::size_t t = 0; t < my_terms; ++t) {
    auto& run = my_postings[t];
    std::sort(run.begin(), run.end());
    require(doc_freq[tb + t] == static_cast<std::int64_t>(run.size()),
            "merge_shards: document frequency disagrees with merged postings");
    local_counts[t] = static_cast<std::int64_t>(run.size());
    local_postings.insert(local_postings.end(), run.begin(), run.end());
    run.clear();
    run.shrink_to_fit();
  }

  const auto record_base = static_cast<std::size_t>(
      ctx.exscan_sum(static_cast<std::int64_t>(local_postings.size())));
  const auto total_record_postings = static_cast<std::uint64_t>(
      ctx.allreduce_sum(static_cast<std::int64_t>(local_postings.size())));

  merged.index.num_terms = n_terms;
  merged.index.total_record_postings = total_record_postings;
  merged.index.total_field_postings = 0;
  merged.index.record_postings = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(total_record_postings, 1));
  merged.index.record_offsets = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(n_terms, 1) + 1);
  // Field-instance postings are intra-shard scaffolding; keep valid,
  // empty arrays so the struct stays safe to pass around.
  merged.index.field_postings = ga::GlobalArray<std::int64_t>::create(ctx, 1);
  merged.index.field_offsets = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(n_terms, 1) + 1);

  if (!local_postings.empty()) {
    merged.index.record_postings.put(ctx, record_base, local_postings);
  }
  if (my_terms > 0) {
    std::vector<std::int64_t> my_offsets(my_terms);
    std::int64_t cursor = static_cast<std::int64_t>(record_base);
    for (std::size_t t = 0; t < my_terms; ++t) {
      my_offsets[t] = cursor;
      cursor += local_counts[t];
    }
    merged.index.record_offsets.put(ctx, tb, my_offsets);
  }
  if (ctx.rank() == ctx.nprocs() - 1) {
    merged.index.record_offsets.put_value(ctx, std::max<std::size_t>(n_terms, 1),
                                          static_cast<std::int64_t>(total_record_postings));
  }
  ctx.barrier();
  return merged;
}

}  // namespace sva::index
