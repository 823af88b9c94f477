#include "crypto/sha512.h"

#include <cstring>
#include <mutex>
#include <vector>

namespace ccf::crypto {

namespace internal {

namespace {

using u128 = unsigned __int128;
// Little-endian 64-bit limb bignum, used only for deriving the SHA-512
// constants exactly (fractional parts of cube/square roots of primes).
using Limbs = std::vector<uint64_t>;

Limbs Trim(Limbs v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
  return v;
}

int Cmp(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Limbs Mul(const Limbs& a, const Limbs& b) {
  Limbs r(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      u128 t = static_cast<u128>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    r[i + b.size()] += carry;
  }
  return Trim(std::move(r));
}

Limbs FromU128(u128 x) {
  Limbs v;
  if (static_cast<uint64_t>(x) != 0 || (x >> 64) != 0) {
    v.push_back(static_cast<uint64_t>(x));
  }
  if ((x >> 64) != 0) v.push_back(static_cast<uint64_t>(x >> 64));
  return v;
}

// Value p * 2^(64*words).
Limbs Shifted(uint64_t p, int words) {
  Limbs v(words + 1, 0);
  v[words] = p;
  return Trim(std::move(v));
}

// Largest x with x^k <= p * 2^(64*shift_words).
u128 IRootShifted(uint64_t p, int k, int shift_words, u128 hi_bound) {
  Limbs target = Shifted(p, shift_words);
  u128 lo = 0, hi = hi_bound;  // invariant: lo^k <= target < hi^k
  while (hi - lo > 1) {
    u128 mid = lo + (hi - lo) / 2;
    Limbs m = FromU128(mid);
    Limbs pow = m;
    for (int i = 1; i < k; ++i) pow = Mul(pow, m);
    if (Cmp(pow, target) <= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

uint64_t CbrtFrac64(uint64_t p) {
  // floor(cbrt(p) * 2^64) mod 2^64: the integer part of cbrt(p) sits above
  // bit 63 and is discarded by the cast.
  u128 x = IRootShifted(p, 3, /*shift_words=*/3, static_cast<u128>(1) << 68);
  return static_cast<uint64_t>(x);
}

uint64_t SqrtFrac64(uint64_t p) {
  u128 x = IRootShifted(p, 2, /*shift_words=*/2, static_cast<u128>(1) << 68);
  return static_cast<uint64_t>(x);
}

}  // namespace internal

namespace {

constexpr int kPrimes80[80] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409};

struct Constants {
  uint64_t k[80];
  uint64_t h0[8];
};

const Constants& GetConstants() {
  static const Constants c = [] {
    Constants out;
    for (int i = 0; i < 80; ++i) {
      out.k[i] = internal::CbrtFrac64(kPrimes80[i]);
    }
    for (int i = 0; i < 8; ++i) {
      out.h0[i] = internal::SqrtFrac64(kPrimes80[i]);
    }
    return out;
  }();
  return c;
}

inline uint64_t Rotr(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

}  // namespace

void Sha512::Reset() {
  const Constants& c = GetConstants();
  for (int i = 0; i < 8; ++i) state_[i] = c.h0[i];
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha512::Compress(const uint8_t* block) {
  const Constants& c = GetConstants();
  uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    uint64_t v = 0;
    for (int j = 0; j < 8; ++j) {
      v = (v << 8) | block[8 * i + j];
    }
    w[i] = v;
  }
  for (int i = 16; i < 80; ++i) {
    uint64_t s0 = Rotr(w[i - 15], 1) ^ Rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    uint64_t s1 = Rotr(w[i - 2], 19) ^ Rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint64_t a = state_[0], b = state_[1], cc = state_[2], d = state_[3];
  uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 80; ++i) {
    uint64_t s1 = Rotr(e, 14) ^ Rotr(e, 18) ^ Rotr(e, 41);
    uint64_t ch = (e & f) ^ (~e & g);
    uint64_t t1 = h + s1 + ch + c.k[i] + w[i];
    uint64_t s0 = Rotr(a, 28) ^ Rotr(a, 34) ^ Rotr(a, 39);
    uint64_t maj = (a & b) ^ (a & cc) ^ (b & cc);
    uint64_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = cc;
    cc = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += cc;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha512::Update(ByteSpan data) {
  if (data.empty()) return;  // its data() may be null, which memcpy rejects
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == sizeof(buf_)) {
      Compress(buf_);
      buf_len_ = 0;
    }
  }
  while (off + 128 <= data.size()) {
    Compress(data.data() + off);
    off += 128;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha512Digest Sha512::Finish() {
  uint64_t bit_len_lo = total_len_ << 3;
  uint64_t bit_len_hi = total_len_ >> 61;
  uint8_t pad[144];
  size_t pad_len = (buf_len_ < 112) ? (112 - buf_len_) : (240 - buf_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len_hi >> (56 - 8 * i));
    pad[pad_len + 8 + i] = static_cast<uint8_t>(bit_len_lo >> (56 - 8 * i));
  }
  Update(ByteSpan(pad, pad_len + 16));

  Sha512Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<uint8_t>(state_[i] >> (56 - 8 * j));
    }
  }
  Reset();
  return out;
}

}  // namespace ccf::crypto
