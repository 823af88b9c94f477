#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"

namespace ccf::crypto {
namespace {

// FIPS 197 Appendix C.3 known-answer vector for AES-256.
TEST(Aes256, Fips197VectorEncrypt) {
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
      .take();
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff").take();
  Aes256 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256, Fips197VectorDecrypt) {
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
      .take();
  Bytes ct = HexDecode("8ea2b7ca516745bfeafc49904b496089").take();
  Aes256 aes(key);
  uint8_t pt[16];
  aes.DecryptBlock(ct.data(), pt);
  EXPECT_EQ(HexEncode(ByteSpan(pt, 16)),
            "00112233445566778899aabbccddeeff");
}

TEST(Aes256, DecryptInvertsEncryptRandomized) {
  Drbg drbg("aes-roundtrip", 0);
  for (int i = 0; i < 50; ++i) {
    Bytes key = drbg.Generate(32);
    Bytes block = drbg.Generate(16);
    Aes256 aes(key);
    uint8_t ct[16], pt[16];
    aes.EncryptBlock(block.data(), ct);
    aes.DecryptBlock(ct, pt);
    EXPECT_EQ(Bytes(pt, pt + 16), block);
  }
}

TEST(Aes256, DifferentKeysDifferentCiphertext) {
  Bytes k1(32, 0x01), k2(32, 0x02);
  uint8_t block[16] = {0};
  uint8_t c1[16], c2[16];
  Aes256(k1).EncryptBlock(block, c1);
  Aes256(k2).EncryptBlock(block, c2);
  EXPECT_NE(Bytes(c1, c1 + 16), Bytes(c2, c2 + 16));
}

// GCM spec test case 13: all-zero key/IV, empty plaintext & AAD.
TEST(AesGcm, SpecCase13EmptyPlaintext) {
  Bytes key(32, 0);
  Bytes iv(12, 0);
  AesGcm gcm(key);
  Bytes sealed = gcm.Seal(iv, {}, {});
  EXPECT_EQ(HexEncode(sealed), "530f8afbc74536b9a963b4f1c4cb738b");
}

// GCM spec test case 14: one zero block of plaintext.
TEST(AesGcm, SpecCase14OneBlock) {
  Bytes key(32, 0);
  Bytes iv(12, 0);
  Bytes pt(16, 0);
  AesGcm gcm(key);
  Bytes sealed = gcm.Seal(iv, pt, {});
  EXPECT_EQ(HexEncode(sealed),
            "cea7403d4d606b6e074ec5d3baf39d18"
            "d0d1c8a799996bf0265b98b5d48ab919");
}

TEST(AesGcm, SealOpenRoundTrip) {
  Drbg drbg("gcm-roundtrip", 0);
  Bytes key = drbg.Generate(32);
  AesGcm gcm(key);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    Bytes iv = drbg.Generate(12);
    Bytes pt = drbg.Generate(len);
    Bytes aad = drbg.Generate(len % 31);
    Bytes sealed = gcm.Seal(iv, pt, aad);
    EXPECT_EQ(sealed.size(), len + kGcmTagSize);
    auto opened = gcm.Open(iv, sealed, aad);
    ASSERT_TRUE(opened.ok()) << "len=" << len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(AesGcm, TamperedCiphertextRejected) {
  Drbg drbg("gcm-tamper", 0);
  Bytes key = drbg.Generate(32);
  Bytes iv = drbg.Generate(12);
  AesGcm gcm(key);
  Bytes sealed = gcm.Seal(iv, ToBytes("attack at dawn"), ToBytes("hdr"));
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(gcm.Open(iv, bad, ToBytes("hdr")).ok()) << "byte " << i;
  }
}

TEST(AesGcm, WrongAadRejected) {
  Bytes key(32, 7);
  Bytes iv(12, 9);
  AesGcm gcm(key);
  Bytes sealed = gcm.Seal(iv, ToBytes("payload"), ToBytes("aad-1"));
  EXPECT_FALSE(gcm.Open(iv, sealed, ToBytes("aad-2")).ok());
  EXPECT_TRUE(gcm.Open(iv, sealed, ToBytes("aad-1")).ok());
}

TEST(AesGcm, WrongIvRejected) {
  Bytes key(32, 7);
  AesGcm gcm(key);
  Bytes iv1(12, 1), iv2(12, 2);
  Bytes sealed = gcm.Seal(iv1, ToBytes("payload"), {});
  EXPECT_FALSE(gcm.Open(iv2, sealed, {}).ok());
}

TEST(AesGcm, WrongKeyRejected) {
  Bytes k1(32, 1), k2(32, 2);
  Bytes iv(12, 0);
  Bytes sealed = AesGcm(k1).Seal(iv, ToBytes("payload"), {});
  EXPECT_FALSE(AesGcm(k2).Open(iv, sealed, {}).ok());
}

TEST(AesGcm, TruncatedBlobRejected) {
  Bytes key(32, 1);
  Bytes iv(12, 0);
  AesGcm gcm(key);
  EXPECT_FALSE(gcm.Open(iv, Bytes(8, 0), {}).ok());
}

// ------------------------------------------------------------ both kernels
//
// Every case below runs on the portable kernel and on the AES-NI/PCLMULQDQ
// kernel. Aes256 and AesGcm pick the hardware one by themselves where the
// CPU has it, so on such CPUs only these Portable cases and the SGX-sim
// boundary still run the portable code.

class AesKernelTest : public ::testing::TestWithParam<AesKernel> {
 protected:
  void SetUp() override {
    if (GetParam() == AesKernel::kFastest && !internal::CpuHasAesClmul()) {
      GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ; hardware kernel not run";
    }
  }
  bool hardware() const { return GetParam() == AesKernel::kFastest; }
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, AesKernelTest,
    ::testing::Values(AesKernel::kPortable, AesKernel::kFastest),
    [](const ::testing::TestParamInfo<AesKernel>& info) {
      return info.param == AesKernel::kPortable ? "Portable" : "Hardware";
    });

// FIPS 197 Appendix C.3.
TEST_P(AesKernelTest, Fips197) {
  Bytes key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
      .take();
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff").take();
  Aes256 aes(key, GetParam());
  EXPECT_EQ(aes.hardware(), hardware());
  uint8_t ct[16], back[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 16), pt);
}

// GCM specification (McGrew and Viega) test cases 13-16: the AES-256 ones.
TEST_P(AesKernelTest, GcmSpecCases13To16) {
  struct Case {
    std::string key, iv, pt, aad, sealed;  // sealed = ciphertext || tag
  };
  const std::string k0(64, '0');
  const std::string iv0(24, '0');
  const std::string k1 =
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
  const std::string iv1 = "cafebabefacedbaddecaf888";
  const std::string p64 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
  const std::string c60 =
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662";
  const Case cases[] = {
      {k0, iv0, "", "", "530f8afbc74536b9a963b4f1c4cb738b"},
      {k0, iv0, std::string(32, '0'), "",
       "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"},
      {k1, iv1, p64, "", c60 + "898015adb094dac5d93471bdec1a502270e3cc6c"},
      {k1, iv1, p64.substr(0, 120), "feedfacedeadbeeffeedfacedeadbeefabaddad2",
       c60 + "76fc6ece0f4e1768cddf8853bb2d551b"},
  };
  for (const Case& c : cases) {
    AesGcm gcm(HexDecode(c.key).take(), GetParam());
    EXPECT_EQ(gcm.hardware(), hardware());
    Bytes iv = HexDecode(c.iv).take();
    Bytes pt = HexDecode(c.pt).take();
    Bytes aad = HexDecode(c.aad).take();
    Bytes sealed = gcm.Seal(iv, pt, aad);
    EXPECT_EQ(HexEncode(sealed), c.sealed);
    auto opened = gcm.Open(iv, sealed, aad);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, pt);
  }
}

TEST_P(AesKernelTest, ForgeriesRejected) {
  Drbg drbg("gcm-kernel-forgery", 0);
  Bytes key = drbg.Generate(32);
  Bytes iv = drbg.Generate(12);
  AesGcm gcm(key, GetParam());
  Bytes aad = ToBytes("hdr");
  Bytes sealed = gcm.Seal(iv, drbg.Generate(40), aad);
  // Every flipped bit of ciphertext or tag.
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(gcm.Open(iv, bad, aad).ok()) << "byte " << i;
  }
  // Wrong key, wrong AAD, truncation (to a bare tag and below it).
  EXPECT_FALSE(AesGcm(drbg.Generate(32), GetParam()).Open(iv, sealed, aad).ok());
  EXPECT_FALSE(gcm.Open(iv, sealed, ToBytes("hdR")).ok());
  EXPECT_FALSE(gcm.Open(iv, sealed, {}).ok());
  EXPECT_FALSE(
      gcm.Open(iv, ByteSpan(sealed).subspan(sealed.size() - 16), aad).ok());
  EXPECT_FALSE(gcm.Open(iv, ByteSpan(sealed).first(15), aad).ok());
  EXPECT_TRUE(gcm.Open(iv, sealed, aad).ok());
}

// Hardware against portable on random inputs. Skips where the CPU lacks
// the instructions, since the two objects would then run the same code.
class AesKernelEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::CpuHasAesClmul()) {
      GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ; nothing to compare";
    }
  }
};

TEST_F(AesKernelEquivalence, BlocksMatch) {
  Drbg drbg("aes-kernel-blocks", 0);
  for (int i = 0; i < 200; ++i) {
    Bytes key = drbg.Generate(32);
    Bytes block = drbg.Generate(16);
    Aes256 hw(key), sw(key, AesKernel::kPortable);
    ASSERT_TRUE(hw.hardware());
    uint8_t a[16], b[16];
    hw.EncryptBlock(block.data(), a);
    sw.EncryptBlock(block.data(), b);
    ASSERT_EQ(Bytes(a, a + 16), Bytes(b, b + 16));
    hw.DecryptBlock(block.data(), a);
    sw.DecryptBlock(block.data(), b);
    ASSERT_EQ(Bytes(a, a + 16), Bytes(b, b + 16));
  }
}

// Seals with one kernel, opens with the other, and compares the bytes.
void ExpectGcmKernelsAgree(Drbg* drbg, size_t pt_len, size_t aad_len) {
  Bytes key = drbg->Generate(32);
  Bytes iv = drbg->Generate(12);
  Bytes pt = drbg->Generate(pt_len);
  Bytes aad = drbg->Generate(aad_len);
  AesGcm hw(key), sw(key, AesKernel::kPortable);
  ASSERT_TRUE(hw.hardware());
  ASSERT_FALSE(sw.hardware());
  Bytes sealed = hw.Seal(iv, pt, aad);
  ASSERT_EQ(sealed, sw.Seal(iv, pt, aad))
      << "pt_len=" << pt_len << " aad_len=" << aad_len;
  auto by_sw = sw.Open(iv, sealed, aad);
  ASSERT_TRUE(by_sw.ok());
  EXPECT_EQ(*by_sw, pt);
  auto by_hw = hw.Open(iv, sealed, aad);
  ASSERT_TRUE(by_hw.ok());
  EXPECT_EQ(*by_hw, pt);
}

TEST_F(AesKernelEquivalence, GcmMatchesForEveryLengthUpTo600) {
  Drbg drbg("gcm-kernel-lengths", 0);
  for (size_t len = 0; len <= 600; ++len) {
    ExpectGcmKernelsAgree(&drbg, len, drbg.Uniform(101));
  }
}

TEST_F(AesKernelEquivalence, GcmMatchesForRandomLengthsUpTo20KiB) {
  Drbg drbg("gcm-kernel-random", 0);
  for (int i = 0; i < 200; ++i) {
    ExpectGcmKernelsAgree(&drbg, drbg.Uniform(20 * 1024 + 1),
                          drbg.Uniform(101));
  }
}

// GCM with a 12-byte IV starts its counter at 2, so only a direct GCTR call
// reaches the 32-bit wrap: it must land inside an eight-block pass.
TEST_F(AesKernelEquivalence, CounterWrapsAt32Bits) {
  Drbg drbg("gcm-kernel-wrap", 0);
  Bytes key = drbg.Generate(32);
  Aes256 hw(key), sw(key, AesKernel::kPortable);
  for (uint32_t start : {0xfffffffbu, 0xfffffff7u, 0xffffffffu, 0u}) {
    Bytes ctr = drbg.Generate(16);
    for (int i = 0; i < 4; ++i) {
      ctr[12 + i] = static_cast<uint8_t>(start >> (24 - 8 * i));
    }
    Bytes in = drbg.Generate(16 * 20 + 5);
    Bytes a(in.size()), b(in.size());
    hw.Ctr32Xor(ctr.data(), in, a.data());
    sw.Ctr32Xor(ctr.data(), in, b.data());
    EXPECT_EQ(a, b) << "start=" << start;
    // The block after the wrap uses counter 0 with the prefix unchanged.
    uint32_t wrapped = 0u - start - 1;  // blocks before the counter is 0
    if (wrapped < 20) {
      Bytes zero_ctr = ctr;
      zero_ctr[12] = zero_ctr[13] = zero_ctr[14] = zero_ctr[15] = 0;
      uint8_t ks[16];
      sw.EncryptBlock(zero_ctr.data(), ks);
      for (int j = 0; j < 16; ++j) {
        EXPECT_EQ(a[16 * wrapped + j], in[16 * wrapped + j] ^ ks[j]);
      }
    }
  }
}

}  // namespace
}  // namespace ccf::crypto
