#include "sva/index/inverted_index.hpp"

#include <algorithm>
#include <numeric>

#include "sva/util/error.hpp"
#include "sva/util/log.hpp"

namespace sva::index {

double LoadBalanceReport::max_busy() const {
  double m = 0.0;
  for (double b : busy_seconds) m = std::max(m, b);
  return m;
}

double LoadBalanceReport::mean_busy() const {
  if (busy_seconds.empty()) return 0.0;
  double s = 0.0;
  for (double b : busy_seconds) s += b;
  return s / static_cast<double>(busy_seconds.size());
}

double LoadBalanceReport::imbalance() const {
  const double mean = mean_busy();
  return mean > 0.0 ? max_busy() / mean : 1.0;
}

namespace {

/// Reads the half-open offset window [f_begin, f_end] (inclusive end
/// sentinel) plus the referenced term segment in two bulk gets.
struct FieldWindow {
  std::vector<std::int64_t> offsets;  ///< f_end - f_begin + 1 entries
  std::vector<std::int64_t> terms;    ///< the concatenated term ids

  [[nodiscard]] std::size_t field_count() const { return offsets.size() - 1; }

  [[nodiscard]] std::span<const std::int64_t> field_terms(std::size_t i) const {
    const auto base = static_cast<std::size_t>(offsets.front());
    const auto begin = static_cast<std::size_t>(offsets[i]) - base;
    const auto end = static_cast<std::size_t>(offsets[i + 1]) - base;
    return {terms.data() + begin, end - begin};
  }
};

FieldWindow read_window(ga::Context& ctx, const text::ForwardIndex& forward,
                        std::size_t f_begin, std::size_t f_end) {
  FieldWindow w;
  w.offsets.resize(f_end - f_begin + 1);
  forward.field_offsets.get(ctx, f_begin, w.offsets);
  const auto t_begin = static_cast<std::size_t>(w.offsets.front());
  const auto t_end = static_cast<std::size_t>(w.offsets.back());
  w.terms.resize(t_end - t_begin);
  if (!w.terms.empty()) forward.field_terms.get(ctx, t_begin, w.terms);
  return w;
}

}  // namespace

IndexingResult build_inverted_index(ga::Context& ctx, const text::ForwardIndex& forward,
                                    std::size_t num_terms, const IndexingConfig& config) {
  require(num_terms >= 1, "build_inverted_index: empty vocabulary");
  const auto n_terms = num_terms;
  const auto n_fields = static_cast<std::size_t>(forward.num_fields);

  IndexingResult result;
  result.index.num_terms = n_terms;
  result.stats.num_terms = n_terms;
  result.stats.num_records = forward.num_records;
  result.stats.total_occurrences = forward.total_terms;

  // ==== Phase A: counting + load table =================================
  // Local dense counts over this rank's own scanned fields.
  const auto [my_f_begin, my_f_end] =
      forward.rank_field_ranges[static_cast<std::size_t>(ctx.rank())];

  std::vector<std::int64_t> term_freq(n_terms, 0);
  std::vector<std::int64_t> field_posting_count(n_terms, 0);

  if (my_f_end > my_f_begin) {
    const FieldWindow window = read_window(ctx, forward, my_f_begin, my_f_end);
    std::vector<std::int64_t> unique_buf;
    for (std::size_t i = 0; i < window.field_count(); ++i) {
      const auto terms = window.field_terms(i);
      unique_buf.assign(terms.begin(), terms.end());
      std::sort(unique_buf.begin(), unique_buf.end());
      unique_buf.erase(std::unique(unique_buf.begin(), unique_buf.end()), unique_buf.end());
      for (std::int64_t t : terms) ++term_freq[static_cast<std::size_t>(t)];
      for (std::int64_t t : unique_buf) ++field_posting_count[static_cast<std::size_t>(t)];
    }
  }

  ctx.allreduce_sum(term_freq.data(), term_freq.size());
  ctx.allreduce_sum(field_posting_count.data(), field_posting_count.size());

  // FAST-INV load table: exclusive prefix sum of posting counts gives each
  // term's posting region; identical on every rank, computed locally.
  std::vector<std::int64_t> posting_offsets(n_terms + 1, 0);
  std::partial_sum(field_posting_count.begin(), field_posting_count.end(),
                   posting_offsets.begin() + 1);
  const auto total_field_postings = static_cast<std::uint64_t>(posting_offsets.back());
  result.index.total_field_postings = total_field_postings;

  // Publish term statistics + offsets; each rank writes its own block.
  result.stats.term_frequency = ga::GlobalArray<std::int64_t>::create(ctx, n_terms);
  result.stats.doc_frequency = ga::GlobalArray<std::int64_t>::create(ctx, n_terms);
  result.index.field_offsets = ga::GlobalArray<std::int64_t>::create(ctx, n_terms + 1);
  result.index.field_postings = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(total_field_postings, 1));
  auto cursors = ga::GlobalArray<std::int64_t>::create(ctx, n_terms);

  {
    const auto [tb, te] = result.stats.term_frequency.local_row_range(ctx);
    if (te > tb) {
      result.stats.term_frequency.put(
          ctx, tb, std::span<const std::int64_t>(term_freq.data() + tb, te - tb));
      cursors.put(ctx, tb,
                  std::span<const std::int64_t>(posting_offsets.data() + tb, te - tb));
    }
    const auto [ob, oe] = result.index.field_offsets.local_row_range(ctx);
    if (oe > ob) {
      result.index.field_offsets.put(
          ctx, ob, std::span<const std::int64_t>(posting_offsets.data() + ob, oe - ob));
    }
  }
  ctx.barrier();

  // ==== Phase B: dynamically load-balanced placement ====================
  auto queue = ga::make_task_queue(ctx, config.scheduling, n_fields, config.chunk_fields,
                                   forward.rank_field_ranges);

  const double busy_start = ctx.vtime();
  std::int64_t loads_claimed = 0;

  std::vector<std::pair<std::int64_t, std::int64_t>> chunk_postings;  // (term, field)
  std::vector<std::int64_t> unique_buf;
  std::vector<std::size_t> run_terms;
  std::vector<std::int64_t> run_counts;
  std::vector<std::size_t> posting_slots;
  std::vector<std::int64_t> posting_values;

  while (auto chunk = queue->next(ctx)) {
    ++loads_claimed;
    const FieldWindow window = read_window(ctx, forward, chunk->begin, chunk->end);

    chunk_postings.clear();
    for (std::size_t i = 0; i < window.field_count(); ++i) {
      const auto terms = window.field_terms(i);
      const auto field_gid = static_cast<std::int64_t>(chunk->begin + i);
      unique_buf.assign(terms.begin(), terms.end());
      std::sort(unique_buf.begin(), unique_buf.end());
      unique_buf.erase(std::unique(unique_buf.begin(), unique_buf.end()), unique_buf.end());
      for (std::int64_t t : unique_buf) chunk_postings.emplace_back(t, field_gid);
    }

    // Group by term into runs, then reserve every run's posting slots with
    // ONE batched fetch-and-add (GA element-list RMW) and write every
    // posting with ONE batched scatter.  Aggregation is what makes the
    // modeled cost realistic: GA/ARMCI ship element lists as one message
    // per owner, not one α-charged message per term.
    std::sort(chunk_postings.begin(), chunk_postings.end());
    run_terms.clear();
    run_counts.clear();
    std::size_t run_begin = 0;
    while (run_begin < chunk_postings.size()) {
      std::size_t run_end = run_begin + 1;
      while (run_end < chunk_postings.size() &&
             chunk_postings[run_end].first == chunk_postings[run_begin].first) {
        ++run_end;
      }
      run_terms.push_back(static_cast<std::size_t>(chunk_postings[run_begin].first));
      run_counts.push_back(static_cast<std::int64_t>(run_end - run_begin));
      run_begin = run_end;
    }
    const std::vector<std::int64_t> run_slots =
        cursors.fetch_add_batch(ctx, run_terms, run_counts);

    posting_slots.clear();
    posting_values.clear();
    posting_slots.reserve(chunk_postings.size());
    posting_values.reserve(chunk_postings.size());
    std::size_t pos = 0;
    for (std::size_t r = 0; r < run_terms.size(); ++r) {
      for (std::int64_t k = 0; k < run_counts[r]; ++k, ++pos) {
        posting_slots.push_back(static_cast<std::size_t>(run_slots[r]) +
                                static_cast<std::size_t>(k));
        posting_values.push_back(chunk_postings[pos].second);
      }
    }
    result.index.field_postings.scatter(ctx, posting_slots, posting_values);
  }

  const double busy_end = ctx.vtime();
  result.load_balance.busy_seconds = ctx.allgather(busy_end - busy_start);
  result.load_balance.loads_claimed = ctx.allgather(loads_claimed);
  ctx.barrier();

  // Canonicalize: sort each owned term's field-posting run so the index is
  // deterministic regardless of scheduling order.
  {
    const auto [tb, te] = result.stats.term_frequency.local_row_range(ctx);
    if (te > tb) {
      const auto p_begin = static_cast<std::size_t>(posting_offsets[tb]);
      const auto p_end = static_cast<std::size_t>(posting_offsets[te]);
      if (p_end > p_begin) {
        std::vector<std::int64_t> region(p_end - p_begin);
        result.index.field_postings.get(ctx, p_begin, region);
        for (std::size_t t = tb; t < te; ++t) {
          auto* first = region.data() + (posting_offsets[t] - posting_offsets[tb]);
          auto* last = region.data() + (posting_offsets[t + 1] - posting_offsets[tb]);
          std::sort(first, last);
        }
        result.index.field_postings.put(ctx, p_begin, region);
      }
    }
  }
  ctx.barrier();

  // ==== Phase C: aggregate term→field into term→record =================
  // Resolve field gid → record gid with a replicated copy of the (small)
  // field_record table.
  const std::vector<std::int64_t> field_record = forward.field_record.to_vector(ctx);

  const auto [tb, te] = result.stats.term_frequency.local_row_range(ctx);
  std::vector<std::int64_t> local_record_postings;
  std::vector<std::int64_t> local_record_counts(te > tb ? te - tb : 0, 0);

  if (te > tb) {
    const auto p_begin = static_cast<std::size_t>(posting_offsets[tb]);
    const auto p_end = static_cast<std::size_t>(posting_offsets[te]);
    std::vector<std::int64_t> region(p_end - p_begin);
    if (!region.empty()) result.index.field_postings.get(ctx, p_begin, region);

    std::vector<std::int64_t> records;
    for (std::size_t t = tb; t < te; ++t) {
      records.clear();
      const auto r_begin = static_cast<std::size_t>(posting_offsets[t] - posting_offsets[tb]);
      const auto r_end = static_cast<std::size_t>(posting_offsets[t + 1] - posting_offsets[tb]);
      for (std::size_t i = r_begin; i < r_end; ++i) {
        records.push_back(field_record[static_cast<std::size_t>(region[i])]);
      }
      std::sort(records.begin(), records.end());
      records.erase(std::unique(records.begin(), records.end()), records.end());
      local_record_counts[t - tb] = static_cast<std::int64_t>(records.size());
      local_record_postings.insert(local_record_postings.end(), records.begin(), records.end());
    }
  }

  const auto record_base = static_cast<std::size_t>(
      ctx.exscan_sum(static_cast<std::int64_t>(local_record_postings.size())));
  const auto total_record_postings = static_cast<std::uint64_t>(
      ctx.allreduce_sum(static_cast<std::int64_t>(local_record_postings.size())));
  result.index.total_record_postings = total_record_postings;

  result.index.record_postings = ga::GlobalArray<std::int64_t>::create(
      ctx, std::max<std::size_t>(total_record_postings, 1));
  result.index.record_offsets = ga::GlobalArray<std::int64_t>::create(ctx, n_terms + 1);

  if (!local_record_postings.empty()) {
    result.index.record_postings.put(ctx, record_base, local_record_postings);
  }
  if (te > tb) {
    // Record offsets for my block, plus document frequencies.
    std::vector<std::int64_t> my_offsets(te - tb);
    std::int64_t cursor = static_cast<std::int64_t>(record_base);
    for (std::size_t t = tb; t < te; ++t) {
      my_offsets[t - tb] = cursor;
      cursor += local_record_counts[t - tb];
    }
    result.index.record_offsets.put(ctx, tb, my_offsets);
    result.stats.doc_frequency.put(ctx, tb, local_record_counts);
  }
  if (ctx.rank() == ctx.nprocs() - 1) {
    result.index.record_offsets.put_value(ctx, n_terms,
                                          static_cast<std::int64_t>(total_record_postings));
  }
  ctx.barrier();

  return result;
}

}  // namespace sva::index
