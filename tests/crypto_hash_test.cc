#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace ccf::crypto {
namespace {

std::string HashHex256(std::string_view msg) {
  auto d = Sha256::Hash(ToBytes(msg));
  return HexEncode(ByteSpan(d.data(), d.size()));
}

std::string HashHex512(std::string_view msg) {
  auto d = Sha512::Hash(ToBytes(msg));
  return HexEncode(ByteSpan(d.data(), d.size()));
}

// FIPS 180-4 known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(HashHex256(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HashHex256("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HashHex256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  auto d = h.Finish();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg(300, 'x');
  for (size_t split = 0; split <= msg.size(); split += 37) {
    Sha256 h;
    h.Update(ToBytes(msg.substr(0, split)));
    h.Update(ToBytes(msg.substr(split)));
    auto inc = h.Finish();
    EXPECT_EQ(inc, Sha256::Hash(ToBytes(msg))) << "split=" << split;
  }
}

TEST(Sha256, ReusableAfterFinish) {
  Sha256 h;
  h.Update(ToBytes("abc"));
  auto first = h.Finish();
  h.Update(ToBytes("abc"));
  auto second = h.Finish();
  EXPECT_EQ(first, second);
}

// Boundary lengths around the 64-byte block and 56-byte padding cutoff.
TEST(Sha256, PaddingBoundaries) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'q');
    auto a = Sha256::Hash(ToBytes(msg));
    Sha256 h;
    for (char c : msg) h.Update(ToBytes(std::string(1, c)));
    EXPECT_EQ(h.Finish(), a) << "len=" << len;
  }
}

// The 4-way interleaved kernel must agree with four independent scalar
// hashes for every length, in particular around the padding boundaries
// (55/56/64) where the shared tail layout changes.
TEST(Sha256x4, MatchesScalarForAllLengths) {
  Drbg drbg("sha256x4-test", 0);
  for (size_t len = 0; len <= 300; ++len) {
    Bytes msgs[4];
    const uint8_t* ptrs[4];
    for (int i = 0; i < 4; ++i) {
      msgs[i] = drbg.Generate(len);
      ptrs[i] = msgs[i].data();
    }
    Sha256Digest out[4];
    Sha256x4(ptrs, len, out);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(out[i], Sha256::Hash(msgs[i])) << "len=" << len
                                               << " lane=" << i;
    }
  }
}

TEST(Sha256x4, LanesAreIndependent) {
  // Identical inputs in every lane produce identical digests; changing one
  // lane changes only that lane.
  Bytes base = ToBytes(std::string(100, 'a'));
  Bytes other = base;
  other[50] ^= 1;
  const uint8_t* ptrs[4] = {base.data(), base.data(), other.data(),
                            base.data()};
  Sha256Digest out[4];
  Sha256x4(ptrs, base.size(), out);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(out[1], out[3]);
  EXPECT_NE(out[0], out[2]);
  EXPECT_EQ(out[2], Sha256::Hash(other));
}

// The whole-block fast path in Update (multi-block compression straight
// from the caller's span, no staging copy) must be invisible: feeding any
// chunking of a long message gives the one-shot digest.
TEST(Sha256, MultiBlockUpdateMatchesChunked) {
  Drbg drbg("multiblock-test", 0);
  Bytes msg = drbg.Generate(4096 + 13);
  Sha256Digest expect = Sha256::Hash(msg);
  for (size_t chunk : {1u, 63u, 64u, 65u, 128u, 1000u, 4096u}) {
    Sha256 h;
    for (size_t off = 0; off < msg.size(); off += chunk) {
      h.Update(ByteSpan(msg).subspan(off, std::min(chunk, msg.size() - off)));
    }
    EXPECT_EQ(h.Finish(), expect) << "chunk=" << chunk;
  }
}

// SHA-512 constants are derived at runtime; validate the derivation against
// published FIPS 180-4 values.
TEST(Sha512, DerivedConstants) {
  EXPECT_EQ(internal::CbrtFrac64(2), 0x428a2f98d728ae22ULL);   // K[0]
  EXPECT_EQ(internal::SqrtFrac64(2), 0x6a09e667f3bcc908ULL);   // H[0]
  EXPECT_EQ(internal::SqrtFrac64(19), 0x5be0cd19137e2179ULL);  // H[7]
}

TEST(Sha512, Abc) {
  EXPECT_EQ(HashHex512("abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(HashHex512(""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  std::string msg(517, 'z');
  Sha512 h;
  h.Update(ToBytes(msg.substr(0, 100)));
  h.Update(ToBytes(msg.substr(100)));
  EXPECT_EQ(h.Finish(), Sha512::Hash(ToBytes(msg)));
}

TEST(Sha512, PaddingBoundaries) {
  for (size_t len : {111u, 112u, 113u, 127u, 128u, 129u}) {
    std::string msg(len, 'p');
    auto a = Sha512::Hash(ToBytes(msg));
    Sha512 h;
    h.Update(ToBytes(msg));
    EXPECT_EQ(h.Finish(), a) << "len=" << len;
  }
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: short key "Jefe".
TEST(Hmac, Rfc4231Case2) {
  auto mac = HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  auto a = HmacSha256(key, ToBytes("msg"));
  Sha256Digest kd = Sha256::Hash(key);
  auto b = HmacSha256(ByteSpan(kd.data(), kd.size()), ToBytes("msg"));
  EXPECT_EQ(a, b);
}

TEST(Hkdf, DeterministicAndLabelSeparated) {
  Bytes ikm = ToBytes("input key material");
  Bytes a = Hkdf(ikm, ToBytes("salt"), ToBytes("info-a"), 42);
  Bytes b = Hkdf(ikm, ToBytes("salt"), ToBytes("info-a"), 42);
  Bytes c = Hkdf(ikm, ToBytes("salt"), ToBytes("info-b"), 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 42u);
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = HexDecode("000102030405060708090a0b0c").take();
  Bytes info = HexDecode("f0f1f2f3f4f5f6f7f8f9").take();
  Bytes okm = Hkdf(ikm, salt, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Drbg, DeterministicStreams) {
  Drbg a(ToBytes("seed-1"));
  Drbg b(ToBytes("seed-1"));
  Drbg c(ToBytes("seed-2"));
  Bytes xa = a.Generate(64);
  Bytes xb = b.Generate(64);
  Bytes xc = c.Generate(64);
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
}

TEST(Drbg, LabeledConstructor) {
  Drbg a("node", 3);
  Drbg b("node", 3);
  Drbg c("node", 4);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(Drbg, UniformRespectsBound) {
  Drbg d("uniform", 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(d.Uniform(17), 17u);
  }
}

TEST(Drbg, UniformCoversRange) {
  Drbg d("coverage", 1);
  bool seen[8] = {};
  for (int i = 0; i < 200; ++i) seen[d.Uniform(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ------------------------------------------------------------ both kernels
//
// Every case below runs on the portable compression function and on the
// SHA-NI one. Sha256 picks SHA-NI by itself where the CPU has it, so on
// such CPUs these Portable cases are the portable code's only coverage.

enum class ShaKernel { kPortable, kHardware };

internal::Sha256CompressFn CompressFnFor(ShaKernel kernel) {
  if (kernel == ShaKernel::kPortable) return internal::Sha256CompressPortable;
#if defined(__x86_64__)
  if (internal::CpuHasSha()) return internal::Sha256CompressShaNi;
#endif
  return nullptr;
}

class Sha256KernelTest : public ::testing::TestWithParam<ShaKernel> {
 protected:
  void SetUp() override {
    compress_ = CompressFnFor(GetParam());
    if (compress_ == nullptr) {
      GTEST_SKIP() << "CPU lacks the SHA extensions; hardware kernel not run";
    }
  }
  Sha256Digest Hash(ByteSpan data) const {
    Sha256 h(compress_);
    h.Update(data);
    return h.Finish();
  }
  std::string HashHex(std::string_view msg) const {
    auto d = Hash(ToBytes(msg));
    return HexEncode(ByteSpan(d.data(), d.size()));
  }
  internal::Sha256CompressFn compress_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest,
    ::testing::Values(ShaKernel::kPortable, ShaKernel::kHardware),
    [](const ::testing::TestParamInfo<ShaKernel>& info) {
      return info.param == ShaKernel::kPortable ? "Portable" : "Hardware";
    });

// FIPS 180-4 examples.
TEST_P(Sha256KernelTest, Fips180Vectors) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256 h(compress_);
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  auto d = h.Finish();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Messages of n 'a's around the one- and two-block padding limits; the
// digests come from an independent implementation (OpenSSL).
TEST_P(Sha256KernelTest, PaddingLengths) {
  const std::pair<size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(HashHex(std::string(len, 'a')), hex) << "len=" << len;
  }
}

// RFC 4231 test cases 1-4, 6 and 7 (6 and 7 hash an over-long key first).
TEST_P(Sha256KernelTest, HmacRfc4231) {
  Bytes key4;
  for (uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const struct {
    Bytes key, data;
    const char* mac;
  } cases[] = {
      {Bytes(20, 0x0b), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       ToBytes("This is a test using a larger than block-size key and a "
               "larger than block-size data. The key needs to be hashed "
               "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& c : cases) {
    auto mac = internal::HmacSha256With(compress_, c.key, c.data);
    EXPECT_EQ(HexEncode(ByteSpan(mac.data(), mac.size())), c.mac);
  }
}

TEST_P(Sha256KernelTest, Sha256x4MatchesScalar) {
  Drbg drbg("sha256x4-kernel", 0);
  for (size_t len = 0; len <= 200; ++len) {
    Bytes msgs[4];
    const uint8_t* ptrs[4];
    for (int i = 0; i < 4; ++i) {
      msgs[i] = drbg.Generate(len);
      ptrs[i] = msgs[i].data();
    }
    Sha256Digest out[4];
    if (GetParam() == ShaKernel::kPortable) {
      internal::Sha256x4Portable(ptrs, len, out);
    } else {
      Sha256x4(ptrs, len, out);  // routed to SHA-NI on this CPU
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(out[i], Hash(msgs[i])) << "len=" << len << " lane=" << i;
    }
  }
}

// SHA-NI against portable on random messages fed through random splits.
class Sha256KernelEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = CompressFnFor(ShaKernel::kHardware);
    if (hw_ == nullptr) {
      GTEST_SKIP() << "CPU lacks the SHA extensions; nothing to compare";
    }
  }
  // Hashes `msg` with the hardware kernel in random-sized Update calls and
  // checks it against the portable one-shot digest.
  void ExpectAgree(Drbg* drbg, const Bytes& msg) {
    Sha256 sw(internal::Sha256CompressPortable);
    sw.Update(msg);
    Sha256 hw(hw_);
    size_t off = 0;
    while (off < msg.size()) {
      size_t n = std::min<size_t>(msg.size() - off, drbg->Uniform(200) + 1);
      hw.Update(ByteSpan(msg).subspan(off, n));
      off += n;
    }
    ASSERT_EQ(hw.Finish(), sw.Finish()) << "len=" << msg.size();
  }
  internal::Sha256CompressFn hw_ = nullptr;
};

TEST_F(Sha256KernelEquivalence, EveryLengthUpTo600) {
  Drbg drbg("sha256-kernel-lengths", 0);
  for (size_t len = 0; len <= 600; ++len) ExpectAgree(&drbg, drbg.Generate(len));
}

TEST_F(Sha256KernelEquivalence, RandomLengthsUpTo20KiB) {
  Drbg drbg("sha256-kernel-random", 0);
  for (int i = 0; i < 200; ++i) {
    ExpectAgree(&drbg, drbg.Generate(drbg.Uniform(20 * 1024 + 1)));
  }
}

TEST_F(Sha256KernelEquivalence, SelectedByDefault) {
  EXPECT_EQ(internal::FastestSha256Compress(), hw_);
}

}  // namespace
}  // namespace ccf::crypto
