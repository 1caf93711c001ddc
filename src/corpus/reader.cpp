#include "sva/corpus/reader.hpp"

#include <algorithm>

#include "sva/util/error.hpp"

namespace sva::corpus {

std::size_t CorpusReader::total_bytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < size(); ++i) total += doc_bytes(i);
  return total;
}

std::vector<std::size_t> CorpusReader::doc_sizes() const {
  std::vector<std::size_t> sizes(size());
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = doc_bytes(i);
  return sizes;
}

GeneratedReader::GeneratedReader(const CorpusSpec& spec) : generator_(spec) {
  // Metadata pass: same termination rule as generate_corpus, but each
  // document is dropped as soon as its size is recorded.
  std::size_t total = 0;
  std::uint64_t doc_seq = 0;
  while (total < spec.target_bytes) {
    const std::size_t bytes = generator_.make(doc_seq).bytes();
    total += bytes;
    sizes_.push_back(bytes);
    ++doc_seq;
  }
}

RawDocument GeneratedReader::read(std::size_t i) const {
  require(i < sizes_.size(), "GeneratedReader: document index out of range");
  return generator_.make(static_cast<std::uint64_t>(i));
}

std::vector<std::pair<std::size_t, std::size_t>> plan_shards(const CorpusReader& reader,
                                                             const ShardingConfig& config) {
  std::size_t shards = std::max<std::size_t>(config.num_shards, 1);
  if (config.mem_budget_bytes > 0) {
    const std::size_t total = reader.total_bytes();
    const std::size_t needed =
        (total + config.mem_budget_bytes - 1) / config.mem_budget_bytes;
    shards = std::max(shards, std::max<std::size_t>(needed, 1));
  }
  require(shards <= (1u << 20), "plan_shards: implausible shard count");
  return partition_sizes_by_bytes(reader.doc_sizes(), static_cast<int>(shards));
}

std::vector<std::pair<std::size_t, std::size_t>> slice_shard(
    const std::vector<std::size_t>& doc_sizes, std::pair<std::size_t, std::size_t> shard,
    int nprocs) {
  require(shard.first <= shard.second && shard.second <= doc_sizes.size(),
          "slice_shard: shard outside the corpus");
  const std::vector<std::size_t> sizes(
      doc_sizes.begin() + static_cast<std::ptrdiff_t>(shard.first),
      doc_sizes.begin() + static_cast<std::ptrdiff_t>(shard.second));
  auto slices = partition_sizes_by_bytes(sizes, nprocs);
  const std::size_t n = sizes.size();
  const auto p = static_cast<std::size_t>(nprocs);
  if (n >= p) {
    // A document larger than a byte share leaves the slices after it
    // empty; move each cut so every slice keeps at least one document.
    for (std::size_t r = 1; r < p; ++r) {
      const std::size_t cut = std::clamp(slices[r].first, slices[r - 1].first + 1, n - (p - r));
      slices[r - 1].second = cut;
      slices[r].first = cut;
    }
  }
  for (auto& [begin, end] : slices) {
    begin += shard.first;
    end += shard.first;
  }
  return slices;
}

}  // namespace sva::corpus
