// AES-256 block cipher (FIPS 197).
//
// Two kernels: AES-NI where CPUID reports it (crypto/kernels.h), and a
// portable T-table implementation written from scratch. The portable S-box
// is generated at start-up from its algebraic definition (multiplicative
// inverse in GF(2^8) followed by the FIPS affine transform). Unit tests check
// both kernels against published known-answer vectors and each other.

#ifndef CCF_CRYPTO_AES_H_
#define CCF_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace ccf::crypto {

inline constexpr size_t kAesBlockSize = 16;
inline constexpr size_t kAes256KeySize = 32;

// Which kernel an Aes256 or AesGcm runs. kFastest is AES-NI (and
// PCLMULQDQ for GHASH) when CPUID reports them and the portable code
// otherwise; kPortable is the portable code on every CPU.
enum class AesKernel { kFastest, kPortable };

// AES-256 with a fixed expanded key. Encrypt/decrypt single 16-byte blocks.
class Aes256 {
 public:
  explicit Aes256(ByteSpan key) : Aes256(key, AesKernel::kFastest) {}
  Aes256(ByteSpan key, AesKernel kernel);  // key.size() must be 32.

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  // out = in XOR E(inc32(ctr)) || E(inc32^2(ctr)) || ..., where inc32
  // increments the block's last 32 bits big-endian, wrapping mod 2^32 (the
  // GCTR function of SP 800-38D).
  void Ctr32Xor(const uint8_t ctr[16], ByteSpan in, uint8_t* out) const;

  // True when this object runs the AES-NI kernel.
  bool hardware() const { return hardware_; }

 private:
  static constexpr int kRounds = 14;
  bool hardware_ = false;
  // Round keys as bytes: (kRounds + 1) * 16, FIPS 197 order for both
  // kernels.
  uint8_t round_keys_[(kRounds + 1) * 16] = {};
};

}  // namespace ccf::crypto

#endif  // CCF_CRYPTO_AES_H_
