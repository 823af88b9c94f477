#include "crypto/gcm.h"

#include <cassert>
#include <cstring>

#include "crypto/kernels.h"

namespace ccf::crypto {

namespace {

// GF(2^128) multiplication per SP 800-38D §6.3 (bit-reflected convention).
// Operands and result are 16-byte big-endian blocks.
void GfMul128(const uint8_t x[16], const uint8_t y[16], uint8_t out[16]) {
  uint64_t v_hi = 0, v_lo = 0;
  for (int i = 0; i < 8; ++i) v_hi = (v_hi << 8) | y[i];
  for (int i = 8; i < 16; ++i) v_lo = (v_lo << 8) | y[i];

  uint64_t z_hi = 0, z_lo = 0;
  for (int i = 0; i < 128; ++i) {
    int byte = i / 8;
    int bit = 7 - (i % 8);
    if ((x[byte] >> bit) & 1) {
      z_hi ^= v_hi;
      z_lo ^= v_lo;
    }
    bool lsb = (v_lo & 1) != 0;
    v_lo = (v_lo >> 1) | (v_hi << 63);
    v_hi >>= 1;
    if (lsb) v_hi ^= 0xe100000000000000ULL;
  }
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(z_hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<uint8_t>(z_lo >> (56 - 8 * i));
}

void PutBe64(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
}

}  // namespace

AesGcm::AesGcm(ByteSpan key, AesKernel kernel) : aes_(key, kernel) {
  uint8_t zero[16] = {0};
  aes_.EncryptBlock(zero, h_);
#if defined(__x86_64__)
  if (aes_.hardware()) {
    internal::ClmulGhashInit(h_, h_powers_);
    return;
  }
#endif

  // Htable[j] = (4-bit value j in the leading nibble) * H, via the
  // (slow, known-correct) bit-serial multiply.
  for (int j = 0; j < 16; ++j) {
    uint8_t x[16] = {0};
    x[0] = static_cast<uint8_t>(j << 4);
    uint8_t out[16];
    GfMul128(x, h_, out);
    uint64_t hi = 0, lo = 0;
    for (int i = 0; i < 8; ++i) hi = (hi << 8) | out[i];
    for (int i = 8; i < 16; ++i) lo = (lo << 8) | out[i];
    ht_hi_[j] = hi;
    ht_lo_[j] = lo;
  }
  // r4_[rem] = reduction term for shifting rem (4 bits) off the low end,
  // derived from four single-bit shifts.
  for (int rem = 0; rem < 16; ++rem) {
    uint64_t hi = 0, lo = static_cast<uint64_t>(rem);
    for (int k = 0; k < 4; ++k) {
      bool lsb = (lo & 1) != 0;
      lo = (lo >> 1) | (hi << 63);
      hi >>= 1;
      if (lsb) hi ^= 0xe100000000000000ULL;
    }
    r4_[rem] = hi;
  }
}

// Multiplies (hi, lo) by H using the 4-bit tables (Shoup's method):
// Horner over the 32 nibbles, highest position first.
void AesGcm::GMultH(uint64_t* io_hi, uint64_t* io_lo) const {
  uint64_t x_hi = *io_hi, x_lo = *io_lo;
  // Nibble at position p (p=0: leading nibble of byte 0).
  auto nibble = [&](int p) -> int {
    uint64_t word = p < 16 ? x_hi : x_lo;
    int shift = 60 - 4 * (p & 15);
    return static_cast<int>((word >> shift) & 0xF);
  };
  int n = nibble(31);
  uint64_t z_hi = ht_hi_[n], z_lo = ht_lo_[n];
  for (int p = 30; p >= 0; --p) {
    uint64_t rem = z_lo & 0xF;
    z_lo = (z_lo >> 4) | (z_hi << 60);
    z_hi = (z_hi >> 4) ^ r4_[rem];
    n = nibble(p);
    z_hi ^= ht_hi_[n];
    z_lo ^= ht_lo_[n];
  }
  *io_hi = z_hi;
  *io_lo = z_lo;
}

void AesGcm::Ghash(ByteSpan aad, ByteSpan ciphertext, uint8_t out[16]) const {
  uint8_t lens[16];
  PutBe64(aad.size() * 8, lens);
  PutBe64(ciphertext.size() * 8, lens + 8);
#if defined(__x86_64__)
  if (aes_.hardware()) {
    std::memset(out, 0, 16);
    internal::ClmulGhashUpdate(h_powers_, out, aad.data(), aad.size());
    internal::ClmulGhashUpdate(h_powers_, out, ciphertext.data(),
                               ciphertext.size());
    internal::ClmulGhashUpdate(h_powers_, out, lens, 16);
    return;
  }
#endif
  uint64_t y_hi = 0, y_lo = 0;
  auto absorb = [&](ByteSpan data) {
    for (size_t off = 0; off < data.size(); off += 16) {
      uint8_t block[16] = {0};
      size_t n = std::min<size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, n);
      uint64_t b_hi = 0, b_lo = 0;
      for (int i = 0; i < 8; ++i) b_hi = (b_hi << 8) | block[i];
      for (int i = 8; i < 16; ++i) b_lo = (b_lo << 8) | block[i];
      y_hi ^= b_hi;
      y_lo ^= b_lo;
      GMultH(&y_hi, &y_lo);
    }
  };
  absorb(aad);
  absorb(ciphertext);
  absorb(ByteSpan(lens, 16));
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(y_hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) out[8 + i] = static_cast<uint8_t>(y_lo >> (56 - 8 * i));
}

Bytes AesGcm::Seal(ByteSpan iv, ByteSpan plaintext, ByteSpan aad) const {
  assert(iv.size() == kGcmIvSize);
  uint8_t j0[16] = {0};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;

  Bytes out(plaintext.size() + kGcmTagSize);
  aes_.Ctr32Xor(j0, plaintext, out.data());

  uint8_t s[16];
  Ghash(aad, ByteSpan(out.data(), plaintext.size()), s);
  uint8_t ek_j0[16];
  aes_.EncryptBlock(j0, ek_j0);
  for (int i = 0; i < 16; ++i) {
    out[plaintext.size() + i] = s[i] ^ ek_j0[i];
  }
  return out;
}

Result<Bytes> AesGcm::Open(ByteSpan iv, ByteSpan sealed, ByteSpan aad) const {
  if (iv.size() != kGcmIvSize) {
    return Status::InvalidArgument("gcm: bad IV size");
  }
  if (sealed.size() < kGcmTagSize) {
    return Status::Corruption("gcm: ciphertext shorter than tag");
  }
  size_t ct_len = sealed.size() - kGcmTagSize;
  ByteSpan ciphertext = sealed.subspan(0, ct_len);
  ByteSpan tag = sealed.subspan(ct_len);

  uint8_t j0[16] = {0};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;

  uint8_t s[16];
  Ghash(aad, ciphertext, s);
  uint8_t ek_j0[16];
  aes_.EncryptBlock(j0, ek_j0);
  uint8_t expected[16];
  for (int i = 0; i < 16; ++i) expected[i] = s[i] ^ ek_j0[i];
  if (!ConstantTimeEqual(ByteSpan(expected, 16), tag)) {
    return Status::Corruption("gcm: authentication tag mismatch");
  }

  Bytes out(ct_len);
  aes_.Ctr32Xor(j0, ciphertext, out.data());
  return out;
}

}  // namespace ccf::crypto
