// Asynchronous ledger indexing (paper §3.4): "the indexer pre-processes
// in-order each transaction in the ledger as it is committed", building
// app-defined lookup structures for historical range queries.
//
// Unlike the naive design that indexes inline at the commit callback, the
// Indexer runs at the node's tick with a bounded per-tick entry budget:
// a large commit jump (batch append, joiner catch-up) is absorbed over
// several ticks instead of stalling message processing, and the index
// lags commit by a bounded, observable amount (Lag()) until it catches
// up — the backpressure half of the paper's asynchronous indexing story.

#ifndef CCF_NODE_INDEXING_H_
#define CCF_NODE_INDEXING_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kv/writeset.h"

namespace ccf::indexing {

// A committed ledger entry after enclave-side decode (private writes
// decrypted), as handed to strategies.
struct CommittedEntry {
  uint64_t view = 0;
  uint64_t seqno = 0;
  kv::WriteSet writes;
};

// An indexing strategy observes every committed entry exactly once, in
// seqno order.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual const char* name() const = 0;
  virtual void OnCommittedEntry(uint64_t view, uint64_t seqno,
                                const kv::WriteSet& writes) = 0;
};

// Feeds committed entries to the installed strategies with a per-tick
// budget. The owner (Node) calls Tick once per simulated millisecond with
// the current commit point and a decode callback that materializes one
// committed entry (ledger read + decrypt + parse).
class Indexer {
 public:
  // `entries_per_tick` caps how many entries one Tick may feed (>= 1).
  explicit Indexer(size_t entries_per_tick = 32);

  void Install(std::shared_ptr<Strategy> strategy);

  // Returns false when the entry cannot be decoded (e.g. a joiner's
  // pre-snapshot seqnos, absent from the host ledger); the Indexer then
  // skips it and moves on, matching what a fresh replica could index.
  using DecodeFn = std::function<bool(uint64_t seqno, CommittedEntry* out)>;

  // Feeds entries (indexed_upto, commit_seqno] up to the budget, in
  // order. Returns the number fed this tick. With no strategy installed it
  // decodes nothing and moves indexed_upto straight to commit_seqno.
  size_t Tick(uint64_t commit_seqno, const DecodeFn& decode);

  // Rollbacks only touch uncommitted seqnos, which the Indexer has never
  // seen; this guards the invariant rather than undoing anything.
  void OnRollback(uint64_t seqno);

  uint64_t indexed_upto() const { return indexed_upto_; }
  uint64_t Lag(uint64_t commit_seqno) const {
    return commit_seqno > indexed_upto_ ? commit_seqno - indexed_upto_ : 0;
  }
  size_t strategy_count() const { return strategies_.size(); }

  struct Stats {
    uint64_t entries_fed = 0;
    uint64_t ticks_with_work = 0;
    uint64_t max_fed_per_tick = 0;  // observable backpressure bound
    uint64_t decode_failures = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  size_t entries_per_tick_;
  uint64_t indexed_upto_ = 0;
  std::vector<std::shared_ptr<Strategy>> strategies_;
  Stats stats_;
};

// The workhorse index shipped with the framework (real CCF's SeqnosByKey):
// for one KV map, the ascending list of seqnos that wrote each key,
// stored in fixed-width seqno buckets so range queries touch only the
// buckets overlapping [from, to].
class SeqnosByKey : public Strategy {
 public:
  explicit SeqnosByKey(std::string map_name, uint64_t bucket_size = 64);

  const char* name() const override { return "SeqnosByKey"; }
  void OnCommittedEntry(uint64_t view, uint64_t seqno,
                        const kv::WriteSet& writes) override;

  // Seqnos in [lo, hi] (inclusive) that wrote `key`, ascending.
  std::vector<uint64_t> SeqnosInRange(std::string_view key, uint64_t lo,
                                      uint64_t hi) const;
  // The last seqno <= `seqno` that wrote `key` (point-in-time lookup).
  std::optional<uint64_t> LastWriteAtOrBefore(std::string_view key,
                                              uint64_t seqno) const;

  const std::string& map_name() const { return map_name_; }
  size_t key_count() const { return buckets_.size(); }
  size_t bucket_count() const;

 private:
  std::string map_name_;
  uint64_t bucket_size_;
  // key -> bucket index (seqno / bucket_size) -> ascending seqnos.
  std::map<std::string, std::map<uint64_t, std::vector<uint64_t>>> buckets_;
};

}  // namespace ccf::indexing

#endif  // CCF_NODE_INDEXING_H_
