// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash used throughout the system: Merkle tree nodes (paper §7),
// transaction digests, key fingerprints, and HMAC/HKDF/DRBG below.

#ifndef CCF_CRYPTO_SHA256_H_
#define CCF_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace ccf::crypto {

inline constexpr size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

namespace internal {
// Compresses `n` consecutive 64-byte blocks into the chaining state. The
// kernels are declared in crypto/kernels.h.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t n);
}  // namespace internal

// Incremental SHA-256 hasher. Runs the SHA-NI kernel when the CPU has it
// and the portable one otherwise (crypto/kernels.h).
class Sha256 {
 public:
  Sha256();
  // Runs a named compression function; tests compare the kernels with it.
  explicit Sha256(internal::Sha256CompressFn compress) : compress_(compress) {
    Reset();
  }

  void Reset();
  void Update(ByteSpan data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(ByteSpan data) {
    Sha256 h;
    h.Update(data);
    return h.Finish();
  }

 private:
  // `Update` feeds whole blocks to `compress_` straight from the caller's
  // span -- only a sub-block head/tail is ever staged through `buf_`.
  internal::Sha256CompressFn compress_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

// Multi-buffer SHA-256: hashes four equal-length messages. This is the
// kernel behind MerkleTree::AppendBatch, where leaves and interior nodes
// arrive in bulk with a fixed size. With SHA-NI it hashes the four messages
// one after another, which beats the portable 4-way interleaved kernel
// (four compression chains side by side, the lane loops auto-vectorized to
// 4x32-bit SIMD) that runs otherwise.
void Sha256x4(const uint8_t* const msgs[4], size_t len, Sha256Digest out[4]);

inline Bytes DigestToBytes(const Sha256Digest& d) {
  return Bytes(d.begin(), d.end());
}

}  // namespace ccf::crypto

#endif  // CCF_CRYPTO_SHA256_H_
