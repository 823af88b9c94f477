#include "merkle/merkle.h"

#include <bit>
#include <cassert>

#include "common/buffer.h"

namespace ccf::merkle {

namespace {

// Largest power of two strictly smaller than n (n >= 2).
uint64_t SplitPoint(uint64_t n) {
  return std::bit_floor(n - 1);
}

}  // namespace

Digest LeafHash(ByteSpan data) {
  crypto::Sha256 h;
  uint8_t prefix = 0x00;
  h.Update(ByteSpan(&prefix, 1));
  h.Update(data);
  return h.Finish();
}

Digest InteriorHash(const Digest& left, const Digest& right) {
  crypto::Sha256 h;
  uint8_t prefix = 0x01;
  h.Update(ByteSpan(&prefix, 1));
  h.Update(left);
  h.Update(right);
  return h.Finish();
}

Digest ComputeRootFromProof(const Digest& leaf, const Proof& proof) {
  Digest r = leaf;
  for (const ProofStep& step : proof.path) {
    if (step.side == ProofStep::Side::kLeft) {
      r = InteriorHash(step.digest, r);
    } else {
      r = InteriorHash(r, step.digest);
    }
  }
  return r;
}

Bytes Proof::Serialize() const {
  BufWriter w;
  w.U64(leaf_index);
  w.U64(tree_size);
  w.U32(static_cast<uint32_t>(path.size()));
  for (const ProofStep& step : path) {
    w.U8(static_cast<uint8_t>(step.side));
    w.Raw(ByteSpan(step.digest.data(), step.digest.size()));
  }
  return w.Take();
}

Result<Proof> Proof::Deserialize(ByteSpan data) {
  BufReader r(data);
  Proof proof;
  ASSIGN_OR_RETURN(proof.leaf_index, r.U64());
  ASSIGN_OR_RETURN(proof.tree_size, r.U64());
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  if (n > 64) {
    return Status::InvalidArgument("merkle: proof path too long");
  }
  for (uint32_t i = 0; i < n; ++i) {
    ProofStep step;
    ASSIGN_OR_RETURN(uint8_t side, r.U8());
    if (side > 1) {
      return Status::InvalidArgument("merkle: invalid proof side");
    }
    step.side = static_cast<ProofStep::Side>(side);
    ASSIGN_OR_RETURN(Bytes d, r.Raw(crypto::kSha256DigestSize));
    std::copy(d.begin(), d.end(), step.digest.begin());
    proof.path.push_back(step);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("merkle: trailing proof bytes");
  }
  return proof;
}

void MerkleTree::Append(ByteSpan data) {
  ++stats_.leaf_hashes;
  AppendLeafHash(LeafHash(data));
}

void MerkleTree::AppendLeafHash(const Digest& leaf) {
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(leaf);
  // Complete parent subtrees along the right edge.
  for (size_t h = 0; h + 1 <= levels_.size(); ++h) {
    if (levels_[h].size() % 2 != 0) break;
    if (h + 1 == levels_.size()) levels_.emplace_back();
    size_t n = levels_[h].size();
    levels_[h + 1].push_back(InteriorHash(levels_[h][n - 2], levels_[h][n - 1]));
    ++stats_.interior_hashes;
  }
}

void MerkleTree::AppendBatch(std::span<const Bytes> leaves) {
  if (leaves.empty()) return;
  std::vector<Digest> digests(leaves.size());

  // Leaf hashing: groups of four equal-length contents go through the
  // 4-way kernel. The leaf hash is SHA-256(0x00 || content), so the
  // prefixed buffers are materialized in one scratch allocation; ledger
  // transaction leaves are fixed-size, so in practice every full group of
  // four qualifies.
  std::vector<uint8_t> scratch;
  size_t i = 0;
  while (i + 4 <= leaves.size()) {
    const size_t len = leaves[i].size();
    if (leaves[i + 1].size() != len || leaves[i + 2].size() != len ||
        leaves[i + 3].size() != len) {
      digests[i] = LeafHash(leaves[i]);
      ++stats_.leaf_hashes;
      ++i;
      continue;
    }
    scratch.resize(4 * (len + 1));
    const uint8_t* ptrs[4];
    for (int l = 0; l < 4; ++l) {
      uint8_t* dst = scratch.data() + l * (len + 1);
      dst[0] = 0x00;
      std::copy(leaves[i + l].begin(), leaves[i + l].end(), dst + 1);
      ptrs[l] = dst;
    }
    crypto::Sha256Digest out[4];
    crypto::Sha256x4(ptrs, len + 1, out);
    for (int l = 0; l < 4; ++l) digests[i + l] = out[l];
    stats_.leaf_hashes += 4;
    ++stats_.x4_groups;
    i += 4;
  }
  for (; i < leaves.size(); ++i) {
    digests[i] = LeafHash(leaves[i]);
    ++stats_.leaf_hashes;
  }

  AppendLeafHashes(digests);
}

void MerkleTree::AppendLeafHashes(std::span<const Digest> leaves) {
  if (leaves.empty()) return;
  if (levels_.empty()) levels_.emplace_back();
  stats_.batched_leaves += leaves.size();
  levels_[0].insert(levels_[0].end(), leaves.begin(), leaves.end());

  // Rebuild the complete-subtree levels bottom-up. The incremental
  // invariant is levels_[h+1].size() == levels_[h].size() / 2 for every h,
  // so each level just extends its parent level to the new target; the new
  // parents are hashed four at a time through the 4-way kernel.
  for (size_t h = 0;; ++h) {
    const size_t target = levels_[h].size() / 2;
    if (h + 1 == levels_.size()) {
      if (target == 0) break;
      levels_.emplace_back();
    }
    const std::deque<Digest>& child = levels_[h];
    std::deque<Digest>& parent = levels_[h + 1];
    size_t j = parent.size();
    if (j >= target) break;  // nothing new at this level => none above
    uint8_t buf[4][65];
    while (j + 4 <= target) {
      const uint8_t* ptrs[4];
      for (int l = 0; l < 4; ++l) {
        buf[l][0] = 0x01;
        std::copy(child[2 * (j + l)].begin(), child[2 * (j + l)].end(),
                  buf[l] + 1);
        std::copy(child[2 * (j + l) + 1].begin(), child[2 * (j + l) + 1].end(),
                  buf[l] + 33);
        ptrs[l] = buf[l];
      }
      crypto::Sha256Digest out[4];
      crypto::Sha256x4(ptrs, 65, out);
      parent.insert(parent.end(), out, out + 4);
      stats_.interior_hashes += 4;
      ++stats_.x4_groups;
      j += 4;
    }
    for (; j < target; ++j) {
      parent.push_back(InteriorHash(child[2 * j], child[2 * j + 1]));
      ++stats_.interior_hashes;
    }
  }
}

Digest MerkleTree::RangeHash(uint64_t lo, uint64_t hi) const {
  assert(hi > lo);
  uint64_t len = hi - lo;
  // Complete aligned subtree: O(1) lookup.
  if (std::has_single_bit(len) && lo % len == 0) {
    int h = std::countr_zero(len);
    if (h < static_cast<int>(levels_.size()) &&
        (lo >> h) < levels_[h].size()) {
      return levels_[h][lo >> h];
    }
  }
  if (len == 1) return levels_[0][lo];
  uint64_t k = SplitPoint(len);
  return InteriorHash(RangeHash(lo, lo + k), RangeHash(lo + k, hi));
}

Digest MerkleTree::Root() const {
  if (size() == 0) return crypto::Sha256::Hash({});
  return RangeHash(0, size());
}

Result<Digest> MerkleTree::RootAt(uint64_t n) const {
  if (n > size()) {
    return Status::OutOfRange("merkle: RootAt beyond tree size");
  }
  if (n == 0) return crypto::Sha256::Hash({});
  return RangeHash(0, n);
}

void MerkleTree::PathRec(uint64_t m, uint64_t lo, uint64_t hi,
                         std::vector<ProofStep>* out) const {
  if (hi - lo == 1) return;
  uint64_t k = SplitPoint(hi - lo);
  if (m < lo + k) {
    PathRec(m, lo, lo + k, out);
    out->push_back({ProofStep::Side::kRight, RangeHash(lo + k, hi)});
  } else {
    PathRec(m, lo + k, hi, out);
    out->push_back({ProofStep::Side::kLeft, RangeHash(lo, lo + k)});
  }
}

Result<Proof> MerkleTree::GetProof(uint64_t index, uint64_t tree_size) const {
  if (tree_size > size()) {
    return Status::OutOfRange("merkle: proof tree_size beyond tree");
  }
  if (index >= tree_size) {
    return Status::OutOfRange("merkle: leaf index beyond tree_size");
  }
  Proof proof;
  proof.leaf_index = index;
  proof.tree_size = tree_size;
  PathRec(index, 0, tree_size, &proof.path);
  return proof;
}

Result<Digest> MerkleTree::LeafAt(uint64_t index) const {
  if (index >= size()) {
    return Status::OutOfRange("merkle: leaf index beyond tree");
  }
  return levels_[0][index];
}

void MerkleTree::Truncate(uint64_t n) {
  if (levels_.empty()) return;
  for (size_t h = 0; h < levels_.size(); ++h) {
    size_t keep = static_cast<size_t>(n >> h);
    if (levels_[h].size() > keep) levels_[h].resize(keep);
  }
  while (levels_.size() > 1 && levels_.back().empty()) levels_.pop_back();
}

}  // namespace ccf::merkle
