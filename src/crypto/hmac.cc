#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

#include "common/buffer.h"
#include "crypto/kernels.h"

namespace ccf::crypto {

Sha256Digest internal::HmacSha256With(Sha256CompressFn compress,
                                      ByteSpan key, ByteSpan data) {
  uint8_t k[64] = {0};
  if (key.size() > 64) {
    Sha256 kh(compress);
    kh.Update(key);
    Sha256Digest kd = kh.Finish();
    std::memcpy(k, kd.data(), kd.size());
  } else {
    std::copy(key.begin(), key.end(), k);  // key.data() may be null
  }

  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner(compress);
  inner.Update(ByteSpan(ipad, 64));
  inner.Update(data);
  Sha256Digest inner_digest = inner.Finish();

  Sha256 outer(compress);
  outer.Update(ByteSpan(opad, 64));
  outer.Update(inner_digest);
  return outer.Finish();
}

Sha256Digest HmacSha256(ByteSpan key, ByteSpan data) {
  return internal::HmacSha256With(internal::FastestSha256Compress(), key,
                                  data);
}

Bytes Hkdf(ByteSpan ikm, ByteSpan salt, ByteSpan info, size_t out_len) {
  // Extract.
  Sha256Digest prk = HmacSha256(salt, ikm);
  // Expand.
  Bytes out;
  out.reserve(out_len);
  Bytes t;
  uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes block = t;
    Append(&block, info);
    block.push_back(counter++);
    Sha256Digest d = HmacSha256(prk, block);
    t.assign(d.begin(), d.end());
    size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

Drbg::Drbg(ByteSpan seed) {
  std::memset(key_, 0, sizeof(key_));
  std::memset(value_, 1, sizeof(value_));
  Update(seed);
}

Drbg::Drbg(std::string_view label, uint64_t n) : Drbg([&] {
  BufWriter w;
  w.Str(label);
  w.U64(n);
  return w.Take();
}()) {}

void Drbg::Update(ByteSpan data) {
  // K = HMAC(K, V || 0x00 || data); V = HMAC(K, V)
  Bytes buf(value_, value_ + 32);
  buf.push_back(0x00);
  Append(&buf, data);
  Sha256Digest k = HmacSha256(ByteSpan(key_, 32), buf);
  std::memcpy(key_, k.data(), 32);
  Sha256Digest v = HmacSha256(ByteSpan(key_, 32), ByteSpan(value_, 32));
  std::memcpy(value_, v.data(), 32);
  if (!data.empty()) {
    buf.assign(value_, value_ + 32);
    buf.push_back(0x01);
    Append(&buf, data);
    k = HmacSha256(ByteSpan(key_, 32), buf);
    std::memcpy(key_, k.data(), 32);
    v = HmacSha256(ByteSpan(key_, 32), ByteSpan(value_, 32));
    std::memcpy(value_, v.data(), 32);
  }
}

void Drbg::Generate(uint8_t* out, size_t len) {
  size_t produced = 0;
  while (produced < len) {
    Sha256Digest v = HmacSha256(ByteSpan(key_, 32), ByteSpan(value_, 32));
    std::memcpy(value_, v.data(), 32);
    size_t take = std::min<size_t>(32, len - produced);
    std::memcpy(out + produced, value_, take);
    produced += take;
  }
  Update(ByteSpan());
}

Bytes Drbg::Generate(size_t len) {
  Bytes out(len);
  Generate(out.data(), len);
  return out;
}

uint64_t Drbg::NextU64() {
  uint8_t buf[8];
  Generate(buf, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | buf[i];
  return v;
}

uint64_t Drbg::Uniform(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = bound * ((~uint64_t{0}) / bound);
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return v % bound;
}

}  // namespace ccf::crypto
