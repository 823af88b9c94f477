// Incremental append-only Merkle tree over ledger transactions (paper §3.2).
//
// Layout follows RFC 6962 (Certificate Transparency): the tree over n
// leaves splits at the largest power of two smaller than n. Leaf and
// interior hashes are domain-separated (0x00 / 0x01 prefixes). The tree
// supports:
//   - O(1) amortized Append,
//   - O(log n) Root over any prefix (for signature transactions),
//   - O(log^2 n) Merkle proofs for receipts (paper §3.5),
//   - Truncate, used when consensus rolls back an uncommitted suffix.

#ifndef CCF_MERKLE_MERKLE_H_
#define CCF_MERKLE_MERKLE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace ccf::merkle {

using Digest = crypto::Sha256Digest;

// One step of a Merkle proof: the sibling digest and which side of the
// running hash it sits on. Matches the paper's Figure 3 notation, e.g.
// [(right, d8), (left, d56), (left, d1234), (right, d910)].
struct ProofStep {
  enum class Side : uint8_t { kLeft = 0, kRight = 1 };
  Side side;
  Digest digest;

  bool operator==(const ProofStep&) const = default;
};

struct Proof {
  uint64_t leaf_index = 0;
  uint64_t tree_size = 0;
  std::vector<ProofStep> path;

  Bytes Serialize() const;
  static Result<Proof> Deserialize(ByteSpan data);

  bool operator==(const Proof&) const = default;
};

// Domain-separated hashes.
Digest LeafHash(ByteSpan data);
Digest InteriorHash(const Digest& left, const Digest& right);

// Folds `leaf` up the proof path; the result must equal the signed root.
Digest ComputeRootFromProof(const Digest& leaf, const Proof& proof);

class MerkleTree {
 public:
  MerkleTree() = default;

  // Hash/append operation counters, for the per-node crypto op telemetry
  // and for benches/tests asserting that the batch kernels engaged.
  struct Stats {
    uint64_t leaf_hashes = 0;      // leaf contents hashed (any path)
    uint64_t interior_hashes = 0;  // interior nodes computed (any path)
    uint64_t batched_leaves = 0;   // leaves that arrived via a batch call
    uint64_t x4_groups = 0;        // Sha256x4 invocations (4 hashes each)
  };

  // Appends a transaction; `data` is the transaction's serialized leaf
  // content (hashed with the leaf prefix internally).
  void Append(ByteSpan data);
  // Appends a precomputed leaf digest.
  void AppendLeafHash(const Digest& leaf);
  // Appends many leaf contents at once, pushing both the leaf hashes and
  // the newly completed interior nodes through the 4-way SHA-256 kernel.
  // Exactly equivalent to calling Append(l) for each element.
  void AppendBatch(std::span<const Bytes> leaves);
  // Bulk AppendLeafHash for precomputed digests (joiner catch-up); interior
  // nodes are still batch-hashed.
  void AppendLeafHashes(std::span<const Digest> leaves);

  uint64_t size() const { return levels_.empty() ? 0 : levels_[0].size(); }

  // Root over all current leaves. Empty tree hashes to SHA-256("").
  Digest Root() const;
  // Root over the first n leaves (n <= size).
  Result<Digest> RootAt(uint64_t n) const;

  // Proof that leaf `index` is included in the tree over the first
  // `tree_size` leaves.
  Result<Proof> GetProof(uint64_t index, uint64_t tree_size) const;

  // Leaf digest at `index` (for re-verification).
  Result<Digest> LeafAt(uint64_t index) const;

  // Drops all leaves with index >= n (consensus rollback).
  void Truncate(uint64_t n);

  const Stats& stats() const { return stats_; }

 private:
  Digest RangeHash(uint64_t lo, uint64_t hi) const;
  void PathRec(uint64_t m, uint64_t lo, uint64_t hi,
               std::vector<ProofStep>* out) const;

  // levels_[h][i] = hash of leaves [i*2^h, (i+1)*2^h), stored only for
  // complete subtrees. levels_[0] holds the leaf digests themselves.
  std::vector<std::deque<Digest>> levels_;
  Stats stats_;
};

}  // namespace ccf::merkle

#endif  // CCF_MERKLE_MERKLE_H_
