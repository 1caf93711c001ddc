#include "sva/text/scanner.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "sva/text/token_arena.hpp"
#include "sva/util/error.hpp"
#include "sva/util/log.hpp"

namespace sva::text {

namespace {

/// Shared scan core: tokenizes documents [doc_begin, doc_end) of `reader`
/// (this rank's slice of the current shard — or of the whole corpus for
/// the single-pass path), canonicalizes the vocabulary across ranks, and
/// publishes the forward index.  `num_records` is the record count the
/// forward index describes (shard size or corpus size).
ScanResult scan_range(ga::Context& ctx, const corpus::CorpusReader& reader,
                      std::size_t doc_begin, std::size_t doc_end, std::uint64_t num_records,
                      const TokenizerConfig& tokenizer_config) {
  ScanResult result;
  const Tokenizer tokenizer(tokenizer_config);
  result.doc_range = {doc_begin, doc_end};

  ga::DistHashmap term_map = ga::DistHashmap::create(ctx);
  ga::DistHashmap field_map = ga::DistHashmap::create(ctx);

  // ---- local scan: tokenize straight into dense local term ids --------
  // The fast path: each unique spelling is interned once into the arena,
  // the dedup map is keyed by string_views into it, and the token stream
  // is recorded as dense local ids (0, 1, 2, … in first-encounter order).
  // No per-token std::string is ever allocated, and after the global
  // vocabulary is canonicalized the records are rewritten with one table
  // lookup per token instead of a second string hash.
  TokenArena arena;
  std::unordered_map<std::string_view, std::int64_t> local_ids;
  std::vector<std::string_view> new_terms;  // local id -> spelling, first-seen order

  std::vector<std::string> field_names;  // local field-name id -> name
  std::unordered_map<std::string, std::int32_t> field_name_ids;

  result.records.reserve(doc_end > doc_begin ? doc_end - doc_begin : 0);

  corpus::RawDocument scratch;
  for (std::size_t d = doc_begin; d < doc_end; ++d) {
    const corpus::RawDocument& doc = *reader.fetch(d, scratch);
    ScannedRecord rec;
    rec.doc_id = doc.id;
    rec.raw_bytes = doc.bytes();
    rec.fields.reserve(doc.fields.size());
    for (const auto& field : doc.fields) {
      ScannedField sf;
      {
        auto [it, inserted] = field_name_ids.try_emplace(
            field.name, static_cast<std::int32_t>(field_names.size()));
        if (inserted) field_names.push_back(field.name);
        sf.type = it->second;  // provisional; canonicalized below
      }
      tokenizer.for_each_token(
          field.text,
          [&](std::string_view token) {
            auto it = local_ids.find(token);
            std::int64_t id;
            if (it == local_ids.end()) {
              const std::string_view stable = arena.intern(token);
              id = static_cast<std::int64_t>(new_terms.size());
              local_ids.emplace(stable, id);
              new_terms.push_back(stable);
            } else {
              id = it->second;
            }
            sf.terms.push_back(id);
          },
          &result.stats.tokens);
      if (sf.terms.empty()) ++result.stats.empty_fields;
      rec.fields.push_back(std::move(sf));
    }
    result.stats.bytes_scanned += doc.bytes();
    ++result.stats.records_scanned;
    result.records.push_back(std::move(rec));
  }

  // Model the I/O cost of pulling this rank's slice off the filesystem;
  // compute cost is measured directly.  A serial shared disk charges the
  // whole corpus to every rank (see CommModel::io_parallel).
  const auto total_bytes = static_cast<std::uint64_t>(
      ctx.allreduce_sum(static_cast<std::int64_t>(result.stats.bytes_scanned)));
  ctx.charge(ctx.model().io_read(result.stats.bytes_scanned, total_bytes));

  // ---- global vocabulary: batched inserts into the distributed hashmap
  const std::vector<std::int64_t> provisional =
      term_map.insert_batch(ctx, std::span<const std::string_view>(new_terms));

  // Field-type names go through a (tiny) second distributed map.
  const std::vector<std::int64_t> field_provisional = field_map.insert_batch(ctx, field_names);

  // All inserts must complete before canonicalization.
  ctx.barrier();

  // ---- canonicalize vocabularies --------------------------------------
  auto term_final = term_map.finalize(ctx);
  auto field_final = field_map.finalize(ctx);
  result.vocabulary = term_final.vocabulary;
  result.field_type_names = field_final.vocabulary->terms;

  // Rewrite local records with canonical ids: local id -> canonical id is
  // a dense table, so the rewrite is pure array indexing.
  std::vector<std::int64_t> local_to_canonical(new_terms.size());
  for (std::size_t i = 0; i < new_terms.size(); ++i) {
    local_to_canonical[i] = term_final.remap_id(provisional[i]);
  }
  std::vector<std::int32_t> field_type_canonical(field_names.size());
  for (std::size_t i = 0; i < field_names.size(); ++i) {
    field_type_canonical[i] =
        static_cast<std::int32_t>(field_final.remap_id(field_provisional[i]));
  }

  for (auto& rec : result.records) {
    for (auto& f : rec.fields) {
      f.type = field_type_canonical[static_cast<std::size_t>(f.type)];
      for (auto& t : f.terms) t = local_to_canonical[static_cast<std::size_t>(t)];
    }
  }

  result.forward = build_forward_index(ctx, result.records, num_records);
  return result;
}

}  // namespace

ForwardIndex build_forward_index(ga::Context& ctx, const std::vector<ScannedRecord>& records,
                                 std::uint64_t num_records) {
  std::size_t local_fields = 0;
  std::size_t local_terms = 0;
  for (const auto& rec : records) {
    local_fields += rec.fields.size();
    local_terms += rec.term_count();
  }

  // ---- forward index in global arrays (CSR over field instances) ------
  const auto field_base = static_cast<std::size_t>(
      ctx.exscan_sum(static_cast<std::int64_t>(local_fields)));
  const auto term_base = static_cast<std::size_t>(
      ctx.exscan_sum(static_cast<std::int64_t>(local_terms)));
  const auto total_fields = static_cast<std::uint64_t>(
      ctx.allreduce_sum(static_cast<std::int64_t>(local_fields)));
  const auto total_terms = static_cast<std::uint64_t>(
      ctx.allreduce_sum(static_cast<std::int64_t>(local_terms)));

  ForwardIndex fwd{
      .field_terms = ga::GlobalArray<std::int64_t>::create(
          ctx, std::max<std::size_t>(total_terms, 1)),
      .field_offsets = ga::GlobalArray<std::int64_t>::create(
          ctx, static_cast<std::size_t>(total_fields) + 1),
      .field_record = ga::GlobalArray<std::int64_t>::create(
          ctx, std::max<std::size_t>(total_fields, 1)),
      .field_type = ga::GlobalArray<std::int32_t>::create(
          ctx, std::max<std::size_t>(total_fields, 1)),
      .num_fields = total_fields,
      .num_records = num_records,
      .total_terms = total_terms,
      .rank_field_ranges = {},
  };
  {
    const auto bases = ctx.allgather(static_cast<std::int64_t>(field_base));
    const auto counts = ctx.allgather(static_cast<std::int64_t>(local_fields));
    fwd.rank_field_ranges.reserve(bases.size());
    for (std::size_t r = 0; r < bases.size(); ++r) {
      fwd.rank_field_ranges.emplace_back(static_cast<std::size_t>(bases[r]),
                                         static_cast<std::size_t>(bases[r] + counts[r]));
    }
  }

  // Assemble this rank's CSR segment locally, then publish with bulk puts.
  std::vector<std::int64_t> seg_terms;
  seg_terms.reserve(local_terms);
  std::vector<std::int64_t> seg_offsets;
  seg_offsets.reserve(local_fields + 1);
  std::vector<std::int64_t> seg_record;
  seg_record.reserve(local_fields);
  std::vector<std::int32_t> seg_type;
  seg_type.reserve(local_fields);

  std::int64_t cursor = static_cast<std::int64_t>(term_base);
  for (const auto& rec : records) {
    for (const auto& f : rec.fields) {
      seg_offsets.push_back(cursor);
      seg_record.push_back(static_cast<std::int64_t>(rec.doc_id));
      seg_type.push_back(f.type);
      seg_terms.insert(seg_terms.end(), f.terms.begin(), f.terms.end());
      cursor += static_cast<std::int64_t>(f.terms.size());
    }
  }

  if (!seg_terms.empty()) fwd.field_terms.put(ctx, term_base, seg_terms);
  if (!seg_offsets.empty()) fwd.field_offsets.put(ctx, field_base, seg_offsets);
  if (!seg_record.empty()) fwd.field_record.put(ctx, field_base, seg_record);
  if (!seg_type.empty()) fwd.field_type.put(ctx, field_base, seg_type);
  if (ctx.rank() == ctx.nprocs() - 1) {
    fwd.field_offsets.put_value(ctx, static_cast<std::size_t>(total_fields),
                                static_cast<std::int64_t>(total_terms));
  }
  ctx.barrier();
  return fwd;
}

ScanResult scan_sources(ga::Context& ctx, const corpus::SourceSet& sources,
                        const TokenizerConfig& tokenizer_config) {
  const corpus::InMemoryReader reader(sources);

  // ---- static byte-balanced source distribution -----------------------
  const auto parts = corpus::partition_by_bytes(sources, ctx.nprocs());
  const auto [doc_begin, doc_end] = parts[static_cast<std::size_t>(ctx.rank())];
  return scan_range(ctx, reader, doc_begin, doc_end,
                    static_cast<std::uint64_t>(sources.size()), tokenizer_config);
}

ScanResult scan_shard(ga::Context& ctx, const corpus::CorpusReader& reader,
                      std::pair<std::size_t, std::size_t> shard,
                      const std::vector<std::pair<std::size_t, std::size_t>>& rank_doc_ranges,
                      const TokenizerConfig& tokenizer_config) {
  const auto [begin, end] = rank_doc_ranges[static_cast<std::size_t>(ctx.rank())];
  require(shard.first <= begin && begin <= end && end <= shard.second,
          "scan_shard: rank range outside the shard");
  return scan_range(ctx, reader, begin, end,
                    static_cast<std::uint64_t>(shard.second - shard.first), tokenizer_config);
}

}  // namespace sva::text
