// The append-only ledger (paper §3.2).
//
// Every transaction becomes one ledger entry carrying the transaction ID
// (view, seqno), an entry type, the serialized public write set in plain
// text, and the private write set sealed with the ledger secret. Signature
// entries additionally carry a SignedRoot in their public writes
// ("public:ccf.internal.signatures").
//
// The host keeps the logical ledger in memory (class Ledger) and persists
// it to a directory of physical chunk files, each terminating at a
// signature transaction, exactly as the paper describes. The persistent
// copy is OUTSIDE the trust boundary: everything read back is re-verified
// (see verifier.h).

#ifndef CCF_LEDGER_LEDGER_H_
#define CCF_LEDGER_LEDGER_H_

#include <deque>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace ccf::ledger {

enum class EntryType : uint8_t {
  kUser = 0,             // application transaction
  kSignature = 1,        // Merkle root signature (paper §3.2)
  kReconfiguration = 2,  // node membership change (paper §4.4)
  kGovernance = 3,       // proposal / ballot / member action (paper §5.1)
  kInternal = 4,         // other framework writes (service info, shares...)
};

struct Entry {
  uint64_t view = 0;
  uint64_t seqno = 0;  // 1-based ledger position
  EntryType type = EntryType::kUser;
  Bytes public_ws;       // serialized public write set (plain text)
  Bytes private_sealed;  // sealed private write set ("" if none)
  crypto::Sha256Digest claims_digest{};

  Bytes Serialize() const;
  static Result<Entry> Deserialize(ByteSpan data);

  // Digest of the entry body, used as the transaction's write-set digest
  // in Merkle leaves and receipts.
  crypto::Sha256Digest WriteSetDigest() const;
};

// In-memory logical ledger of one node. Seqnos are 1-based and contiguous.
// A node joining from a snapshot holds only the suffix after its base
// (paper §4.4).
class Ledger {
 public:
  // Declares that entries up to `base` live in the snapshot, not here.
  // Only valid while empty: re-basing a non-empty ledger would silently
  // orphan its entries, so that is a loud FailedPrecondition.
  Status SetBase(uint64_t base);
  uint64_t base_seqno() const { return base_seqno_; }

  // Appends the next entry; entry.seqno must equal last_seqno()+1.
  Status Append(Entry entry);

  // NotFound past the tail; OutOfRange at or below the base (the entry
  // existed but was retired below the snapshot horizon — definitive, a
  // caller must not retry).
  Result<const Entry*> Get(uint64_t seqno) const;
  uint64_t last_seqno() const { return base_seqno_ + entries_.size(); }

  // Removes all entries with seqno > `seqno` (consensus rollback).
  // Truncating exactly at the base empties the suffix; truncating below it
  // is a FailedPrecondition — the prefix up to base is snapshot-covered
  // committed state and can never roll back.
  Status Truncate(uint64_t seqno);

  // Snapshot compaction: drops every entry with seqno <= `horizon` and
  // advances the base to `horizon`. A horizon at or below the current base
  // is an ok no-op; a horizon past the tail is a FailedPrecondition.
  Status RetireBelow(uint64_t horizon);

  const std::deque<Entry>& entries() const { return entries_; }

 private:
  uint64_t base_seqno_ = 0;
  // A deque, as are the Raft log, the Merkle levels and the node's
  // per-seqno digests: it grows in fixed-size blocks instead of doubling
  // (no heap jumps at powers of two), and RetireBelow erases from the
  // front without moving the tail.
  std::deque<Entry> entries_;
};

// ------------------------------------------------------- Physical files

// Writes `ledger` as chunk files under `dir` (created if needed). Each
// committed-range chunk ends at a signature transaction and is named
// "ledger_<first>-<last>"; a trailing unsigned suffix is written as the
// open chunk "ledger_<first>" (matching the real CCF's chunk layout).
// Chunks entirely below the ledger's base (retired below the snapshot
// horizon) are simply absent.
Status SaveToDir(const Ledger& ledger, const std::string& dir);

// Scans `dir`, validates framing and contiguity, and rebuilds the ledger.
// Content authenticity must be established separately (verifier.h).
Result<Ledger> LoadFromDir(const std::string& dir);

}  // namespace ccf::ledger

#endif  // CCF_LEDGER_LEDGER_H_
