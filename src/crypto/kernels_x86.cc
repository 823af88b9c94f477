// x86-64 hardware kernels (see kernels.h): AES-256 with AES-NI, GHASH with
// PCLMULQDQ, SHA-256 compression with the SHA extensions.
//
// Each kernel carries its own target attribute, so the rest of the binary
// is built for baseline x86-64 and only runs these after CPUID says it may.
// Helpers that use intrinsics carry the same attribute (a lambda would not
// inherit it) and are inlined into their kernel.

#include "crypto/kernels.h"

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

#include <cstring>

#define CCF_TARGET_AES __attribute__((target("aes,pclmul,ssse3,sse4.1")))
#define CCF_TARGET_SHA __attribute__((target("sha,ssse3,sse4.1")))

namespace ccf::crypto::internal {

namespace {

struct CpuFeatures {
  bool aes_clmul = false;
  bool sha = false;
};

CpuFeatures ReadCpuid() {
  CpuFeatures f;
  unsigned eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  f.aes_clmul =
      ssse3 && sse41 && (ecx & bit_AES) != 0 && (ecx & bit_PCLMUL) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.sha = ssse3 && sse41 && (ebx & bit_SHA) != 0;
  }
  return f;
}

const CpuFeatures& Cpu() {
  static const CpuFeatures features = ReadCpuid();
  return features;
}

// ------------------------------------------------------------- AES-NI

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// k ^ (k << 32) ^ (k << 64) ^ (k << 96): the running XOR of the previous
// round key's words in the FIPS 197 key schedule.
inline __m128i PrefixXor(__m128i k) {
  __m128i t = _mm_slli_si128(k, 4);
  k = _mm_xor_si128(k, t);
  t = _mm_slli_si128(t, 4);
  k = _mm_xor_si128(k, t);
  t = _mm_slli_si128(t, 4);
  return _mm_xor_si128(k, t);
}

// Round keys 2i (RotWord, SubWord, Rcon) and 2i+1 (SubWord only).
template <int kRcon>
CCF_TARGET_AES inline __m128i EvenRoundKey(__m128i prev2, __m128i prev1) {
  __m128i assist =
      _mm_shuffle_epi32(_mm_aeskeygenassist_si128(prev1, kRcon), 0xff);
  return _mm_xor_si128(PrefixXor(prev2), assist);
}

CCF_TARGET_AES inline __m128i OddRoundKey(__m128i prev2, __m128i prev1) {
  __m128i assist =
      _mm_shuffle_epi32(_mm_aeskeygenassist_si128(prev1, 0), 0xaa);
  return _mm_xor_si128(PrefixXor(prev2), assist);
}

CCF_TARGET_AES inline void LoadRoundKeys(const uint8_t* bytes,
                                         __m128i rk[15]) {
  for (int i = 0; i < 15; ++i) rk[i] = Load(bytes + 16 * i);
}

CCF_TARGET_AES inline __m128i EncryptOne(const __m128i rk[15], __m128i b) {
  b = _mm_xor_si128(b, rk[0]);
  for (int r = 1; r < 14; ++r) b = _mm_aesenc_si128(b, rk[r]);
  return _mm_aesenclast_si128(b, rk[14]);
}

// The counter block for `ctr`: `base` with its last 32 bits big-endian.
CCF_TARGET_AES inline __m128i CounterBlock(__m128i base, uint32_t ctr) {
  return _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(ctr)), 3);
}

// ------------------------------------------------------ PCLMULQDQ GHASH
//
// Blocks are byte-reversed on load so each is one 128-bit integer; the
// multiply is Gueron and Kounavis's (Intel white paper "Carry-less
// multiplication and its usage for computing the GCM mode"): a schoolbook
// 128x128 carry-less product, a one-bit left shift for GCM's reflected bit
// order, and a reduction modulo x^128 + x^7 + x^2 + x + 1. Shift and
// reduction are linear, so four products are summed before one reduction.

struct Product {
  __m128i lo, hi;
};

CCF_TARGET_AES inline __m128i ByteReverse(__m128i v) {
  const __m128i kMask =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(v, kMask);
}

CCF_TARGET_AES inline Product ClMul(__m128i a, __m128i b) {
  __m128i lo = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i hi = _mm_clmulepi64_si128(a, b, 0x11);
  __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                              _mm_clmulepi64_si128(a, b, 0x01));
  return {_mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
          _mm_xor_si128(hi, _mm_srli_si128(mid, 8))};
}

CCF_TARGET_AES inline Product Xor(Product a, Product b) {
  return {_mm_xor_si128(a.lo, b.lo), _mm_xor_si128(a.hi, b.hi)};
}

CCF_TARGET_AES inline __m128i Reduce(Product p) {
  // Shift the 256-bit product left by one bit.
  __m128i lo = p.lo, hi = p.hi;
  __m128i lo_carry = _mm_srli_epi32(lo, 31);
  __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  __m128i cross = _mm_srli_si128(lo_carry, 12);
  hi_carry = _mm_slli_si128(hi_carry, 4);
  lo_carry = _mm_slli_si128(lo_carry, 4);
  lo = _mm_or_si128(lo, lo_carry);
  hi = _mm_or_si128(hi, hi_carry);
  hi = _mm_or_si128(hi, cross);
  // Reduce the low half into the high half.
  __m128i a = _mm_slli_epi32(lo, 31);
  __m128i b = _mm_slli_epi32(lo, 30);
  __m128i c = _mm_slli_epi32(lo, 25);
  a = _mm_xor_si128(a, b);
  a = _mm_xor_si128(a, c);
  __m128i spill = _mm_srli_si128(a, 4);
  a = _mm_slli_si128(a, 12);
  lo = _mm_xor_si128(lo, a);
  __m128i d = _mm_srli_epi32(lo, 1);
  __m128i e = _mm_srli_epi32(lo, 2);
  __m128i f = _mm_srli_epi32(lo, 7);
  d = _mm_xor_si128(d, e);
  d = _mm_xor_si128(d, f);
  d = _mm_xor_si128(d, spill);
  lo = _mm_xor_si128(lo, d);
  return _mm_xor_si128(hi, lo);
}

CCF_TARGET_AES inline __m128i GfMul(__m128i a, __m128i b) {
  return Reduce(ClMul(a, b));
}

// --------------------------------------------------------------- SHA-NI

// Four rounds over message words `w` (already in host order).
CCF_TARGET_SHA inline void ShaRounds4(__m128i* abef, __m128i* cdgh, __m128i w,
                                      int group) {
  __m128i msg = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(kSha256K) + group));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, msg);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(msg, 0x0e));
}

// The next four schedule words from the previous sixteen (w0 oldest).
CCF_TARGET_SHA inline __m128i ShaSchedule(__m128i w0, __m128i w1, __m128i w2,
                                          __m128i w3) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                            _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

}  // namespace

bool CpuHasAesClmul() { return Cpu().aes_clmul; }
bool CpuHasSha() { return Cpu().sha; }

CCF_TARGET_AES void AesNiExpandKey256(const uint8_t key[32],
                                      uint8_t round_keys[240]) {
  __m128i rk[15];
  rk[0] = Load(key);
  rk[1] = Load(key + 16);
  rk[2] = EvenRoundKey<0x01>(rk[0], rk[1]);
  rk[3] = OddRoundKey(rk[1], rk[2]);
  rk[4] = EvenRoundKey<0x02>(rk[2], rk[3]);
  rk[5] = OddRoundKey(rk[3], rk[4]);
  rk[6] = EvenRoundKey<0x04>(rk[4], rk[5]);
  rk[7] = OddRoundKey(rk[5], rk[6]);
  rk[8] = EvenRoundKey<0x08>(rk[6], rk[7]);
  rk[9] = OddRoundKey(rk[7], rk[8]);
  rk[10] = EvenRoundKey<0x10>(rk[8], rk[9]);
  rk[11] = OddRoundKey(rk[9], rk[10]);
  rk[12] = EvenRoundKey<0x20>(rk[10], rk[11]);
  rk[13] = OddRoundKey(rk[11], rk[12]);
  rk[14] = EvenRoundKey<0x40>(rk[12], rk[13]);
  for (int i = 0; i < 15; ++i) Store(round_keys + 16 * i, rk[i]);
}

CCF_TARGET_AES void AesNiEncryptBlock(const uint8_t round_keys[240],
                                      const uint8_t in[16], uint8_t out[16]) {
  __m128i rk[15];
  LoadRoundKeys(round_keys, rk);
  Store(out, EncryptOne(rk, Load(in)));
}

CCF_TARGET_AES void AesNiDecryptBlock(const uint8_t round_keys[240],
                                      const uint8_t in[16], uint8_t out[16]) {
  // The equivalent inverse cipher: middle round keys pass through
  // InvMixColumns (AESIMC).
  __m128i b = _mm_xor_si128(Load(in), Load(round_keys + 16 * 14));
  for (int r = 13; r >= 1; --r) {
    b = _mm_aesdec_si128(b, _mm_aesimc_si128(Load(round_keys + 16 * r)));
  }
  Store(out, _mm_aesdeclast_si128(b, Load(round_keys)));
}

CCF_TARGET_AES void AesNiCtr32Xor(const uint8_t round_keys[240],
                                  const uint8_t ctr[16], const uint8_t* in,
                                  size_t len, uint8_t* out) {
  __m128i rk[15];
  LoadRoundKeys(round_keys, rk);
  const __m128i base = Load(ctr);
  uint32_t c = (static_cast<uint32_t>(ctr[12]) << 24) |
               (static_cast<uint32_t>(ctr[13]) << 16) |
               (static_cast<uint32_t>(ctr[14]) << 8) |
               static_cast<uint32_t>(ctr[15]);
  // Eight independent blocks per pass keep the AES unit's pipeline full.
  for (; len >= 128; len -= 128, in += 128, out += 128) {
    __m128i b0 = _mm_xor_si128(CounterBlock(base, c + 1), rk[0]);
    __m128i b1 = _mm_xor_si128(CounterBlock(base, c + 2), rk[0]);
    __m128i b2 = _mm_xor_si128(CounterBlock(base, c + 3), rk[0]);
    __m128i b3 = _mm_xor_si128(CounterBlock(base, c + 4), rk[0]);
    __m128i b4 = _mm_xor_si128(CounterBlock(base, c + 5), rk[0]);
    __m128i b5 = _mm_xor_si128(CounterBlock(base, c + 6), rk[0]);
    __m128i b6 = _mm_xor_si128(CounterBlock(base, c + 7), rk[0]);
    __m128i b7 = _mm_xor_si128(CounterBlock(base, c + 8), rk[0]);
    c += 8;
    for (int r = 1; r < 14; ++r) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
      b4 = _mm_aesenc_si128(b4, rk[r]);
      b5 = _mm_aesenc_si128(b5, rk[r]);
      b6 = _mm_aesenc_si128(b6, rk[r]);
      b7 = _mm_aesenc_si128(b7, rk[r]);
    }
    Store(out, _mm_xor_si128(_mm_aesenclast_si128(b0, rk[14]), Load(in)));
    Store(out + 16,
          _mm_xor_si128(_mm_aesenclast_si128(b1, rk[14]), Load(in + 16)));
    Store(out + 32,
          _mm_xor_si128(_mm_aesenclast_si128(b2, rk[14]), Load(in + 32)));
    Store(out + 48,
          _mm_xor_si128(_mm_aesenclast_si128(b3, rk[14]), Load(in + 48)));
    Store(out + 64,
          _mm_xor_si128(_mm_aesenclast_si128(b4, rk[14]), Load(in + 64)));
    Store(out + 80,
          _mm_xor_si128(_mm_aesenclast_si128(b5, rk[14]), Load(in + 80)));
    Store(out + 96,
          _mm_xor_si128(_mm_aesenclast_si128(b6, rk[14]), Load(in + 96)));
    Store(out + 112,
          _mm_xor_si128(_mm_aesenclast_si128(b7, rk[14]), Load(in + 112)));
  }
  for (; len >= 16; len -= 16, in += 16, out += 16) {
    __m128i ks = EncryptOne(rk, CounterBlock(base, ++c));
    Store(out, _mm_xor_si128(ks, Load(in)));
  }
  if (len > 0) {
    uint8_t ks[16];
    Store(ks, EncryptOne(rk, CounterBlock(base, ++c)));
    for (size_t i = 0; i < len; ++i) out[i] = in[i] ^ ks[i];
  }
}

CCF_TARGET_AES void ClmulGhashInit(const uint8_t h[16],
                                   uint8_t powers[kGhashPowersSize]) {
  __m128i h1 = ByteReverse(Load(h));
  __m128i h2 = GfMul(h1, h1);
  __m128i h3 = GfMul(h2, h1);
  __m128i h4 = GfMul(h3, h1);
  Store(powers, h1);
  Store(powers + 16, h2);
  Store(powers + 32, h3);
  Store(powers + 48, h4);
}

CCF_TARGET_AES void ClmulGhashUpdate(const uint8_t powers[kGhashPowersSize],
                                     uint8_t y[16], const uint8_t* data,
                                     size_t len) {
  const __m128i h1 = Load(powers);
  const __m128i h2 = Load(powers + 16);
  const __m128i h3 = Load(powers + 32);
  const __m128i h4 = Load(powers + 48);
  __m128i acc = ByteReverse(Load(y));
  // Y' = (Y ^ X0) H^4 ^ X1 H^3 ^ X2 H^2 ^ X3 H, with one reduction.
  for (; len >= 64; len -= 64, data += 64) {
    __m128i x0 = _mm_xor_si128(acc, ByteReverse(Load(data)));
    Product p = ClMul(x0, h4);
    p = Xor(p, ClMul(ByteReverse(Load(data + 16)), h3));
    p = Xor(p, ClMul(ByteReverse(Load(data + 32)), h2));
    p = Xor(p, ClMul(ByteReverse(Load(data + 48)), h1));
    acc = Reduce(p);
  }
  for (; len >= 16; len -= 16, data += 16) {
    acc = GfMul(_mm_xor_si128(acc, ByteReverse(Load(data))), h1);
  }
  if (len > 0) {
    uint8_t block[16] = {0};
    std::memcpy(block, data, len);
    acc = GfMul(_mm_xor_si128(acc, ByteReverse(Load(block))), h1);
  }
  Store(y, ByteReverse(acc));
}

CCF_TARGET_SHA void Sha256CompressShaNi(uint32_t state[8],
                                        const uint8_t* blocks, size_t n) {
  // Big-endian message words to host order.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // SHA-NI keeps the state as (A,B,E,F) and (C,D,G,H).
  __m128i t = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xf0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* p = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), kByteSwap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), kByteSwap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), kByteSwap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), kByteSwap);
    ShaRounds4(&abef, &cdgh, w0, 0);
    ShaRounds4(&abef, &cdgh, w1, 1);
    ShaRounds4(&abef, &cdgh, w2, 2);
    ShaRounds4(&abef, &cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = ShaSchedule(w0, w1, w2, w3);
      ShaRounds4(&abef, &cdgh, w0, g);
      w1 = ShaSchedule(w1, w2, w3, w0);
      ShaRounds4(&abef, &cdgh, w1, g + 1);
      w2 = ShaSchedule(w2, w3, w0, w1);
      ShaRounds4(&abef, &cdgh, w2, g + 2);
      w3 = ShaSchedule(w3, w0, w1, w2);
      ShaRounds4(&abef, &cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  t = _mm_shuffle_epi32(abef, 0x1b);
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(t, cdgh, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, t, 8));
}

}  // namespace ccf::crypto::internal

#else  // !__x86_64__

namespace ccf::crypto::internal {

bool CpuHasAesClmul() { return false; }
bool CpuHasSha() { return false; }

}  // namespace ccf::crypto::internal

#endif  // __x86_64__
