#include "node/indexing.h"

#include <algorithm>

namespace ccf::indexing {

Indexer::Indexer(size_t entries_per_tick)
    : entries_per_tick_(entries_per_tick == 0 ? 1 : entries_per_tick) {}

void Indexer::Install(std::shared_ptr<Strategy> strategy) {
  if (strategy) strategies_.push_back(std::move(strategy));
}

size_t Indexer::Tick(uint64_t commit_seqno, const DecodeFn& decode) {
  // Nothing would consume a decoded entry, so decode none. A strategy
  // installed later starts from indexed_upto_ either way.
  if (strategies_.empty()) {
    indexed_upto_ = std::max(indexed_upto_, commit_seqno);
    return 0;
  }
  size_t fed = 0;
  while (indexed_upto_ < commit_seqno && fed < entries_per_tick_) {
    uint64_t seqno = indexed_upto_ + 1;
    CommittedEntry entry;
    if (decode(seqno, &entry)) {
      for (auto& strategy : strategies_) {
        strategy->OnCommittedEntry(entry.view, entry.seqno, entry.writes);
      }
    } else {
      ++stats_.decode_failures;
    }
    indexed_upto_ = seqno;
    ++fed;
  }
  if (fed > 0) {
    stats_.entries_fed += fed;
    ++stats_.ticks_with_work;
    stats_.max_fed_per_tick = std::max<uint64_t>(stats_.max_fed_per_tick, fed);
  }
  return fed;
}

void Indexer::OnRollback(uint64_t seqno) {
  // Only committed entries are ever fed, and commit never rolls back, so a
  // rollback below indexed_upto_ would mean the feed order was violated.
  (void)seqno;
}

SeqnosByKey::SeqnosByKey(std::string map_name, uint64_t bucket_size)
    : map_name_(std::move(map_name)),
      bucket_size_(bucket_size == 0 ? 1 : bucket_size) {}

void SeqnosByKey::OnCommittedEntry(uint64_t view, uint64_t seqno,
                                   const kv::WriteSet& writes) {
  (void)view;
  auto it = writes.maps.find(map_name_);
  if (it == writes.maps.end()) return;
  for (const auto& [key, value] : it->second) {
    std::string key_str(key.begin(), key.end());
    auto& bucket = buckets_[key_str][seqno / bucket_size_];
    if (bucket.empty() || bucket.back() < seqno) bucket.push_back(seqno);
  }
}

std::vector<uint64_t> SeqnosByKey::SeqnosInRange(std::string_view key,
                                                 uint64_t lo,
                                                 uint64_t hi) const {
  std::vector<uint64_t> out;
  if (lo > hi) return out;
  auto it = buckets_.find(std::string(key));
  if (it == buckets_.end()) return out;
  const auto& by_bucket = it->second;
  for (auto b = by_bucket.lower_bound(lo / bucket_size_);
       b != by_bucket.end() && b->first <= hi / bucket_size_; ++b) {
    for (uint64_t seqno : b->second) {
      if (seqno >= lo && seqno <= hi) out.push_back(seqno);
    }
  }
  return out;
}

std::optional<uint64_t> SeqnosByKey::LastWriteAtOrBefore(
    std::string_view key, uint64_t seqno) const {
  auto it = buckets_.find(std::string(key));
  if (it == buckets_.end()) return std::nullopt;
  const auto& by_bucket = it->second;
  // Walk buckets downward from the one containing `seqno`.
  auto b = by_bucket.upper_bound(seqno / bucket_size_);
  while (b != by_bucket.begin()) {
    --b;
    const auto& seqnos = b->second;
    auto pos = std::upper_bound(seqnos.begin(), seqnos.end(), seqno);
    if (pos != seqnos.begin()) return *(pos - 1);
  }
  return std::nullopt;
}

size_t SeqnosByKey::bucket_count() const {
  size_t n = 0;
  for (const auto& [key, by_bucket] : buckets_) n += by_bucket.size();
  return n;
}

}  // namespace ccf::indexing
