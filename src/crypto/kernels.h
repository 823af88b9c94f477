// Crypto kernels behind Aes256, AesGcm, Sha256 and Sha256x4. Internal to
// src/crypto; tests and ablation benches include it to reach each kernel
// directly.
//
// Every primitive has a portable kernel, and on x86-64 a hardware one
// (AES-NI, PCLMULQDQ, SHA extensions). The public classes take the hardware
// kernel when CPUID reports the instructions and the portable one otherwise;
// nothing else selects a kernel. Both produce bit-identical output. The
// hardware kernels are compiled with per-function target attributes and no
// -march flag, so one binary still runs on any x86-64 CPU: call one only
// after its CpuHas* predicate returned true.

#ifndef CCF_CRYPTO_KERNELS_H_
#define CCF_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace ccf::crypto::internal {

// CPUID leaf 1 ECX: AES, PCLMULQDQ, SSSE3 and SSE4.1. Read once.
bool CpuHasAesClmul();
// CPUID leaf 7 EBX bit 29 (SHA), plus SSSE3 and SSE4.1. Read once.
bool CpuHasSha();

// FIPS 180-4 §4.2.2 round constants.
extern const uint32_t kSha256K[64];

// The compression function Sha256 runs when none is named.
Sha256CompressFn FastestSha256Compress();
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t n);
// The 4-lane interleaved portable kernel behind Sha256x4.
void Sha256x4Portable(const uint8_t* const msgs[4], size_t len,
                      Sha256Digest out[4]);
// HmacSha256 over a named compression function.
Sha256Digest HmacSha256With(Sha256CompressFn compress, ByteSpan key,
                            ByteSpan data);

#if defined(__x86_64__)
// AES-256 round keys are 15 blocks of 16 bytes in FIPS 197 byte order, the
// layout the portable key schedule also produces.
void AesNiExpandKey256(const uint8_t key[32], uint8_t round_keys[240]);
void AesNiEncryptBlock(const uint8_t round_keys[240], const uint8_t in[16],
                       uint8_t out[16]);
void AesNiDecryptBlock(const uint8_t round_keys[240], const uint8_t in[16],
                       uint8_t out[16]);
// out = in XOR E(inc32(ctr)) || E(inc32^2(ctr)) || ..., eight blocks per
// pass (the GCTR function of SP 800-38D).
void AesNiCtr32Xor(const uint8_t round_keys[240], const uint8_t ctr[16],
                   const uint8_t* in, size_t len, uint8_t* out);

// GHASH with PCLMULQDQ. `powers` holds H, H^2, H^3, H^4 in the kernel's
// layout; `y` is the running GHASH value in block byte order. Update absorbs
// `data` as 16-byte blocks, the last one zero-padded.
inline constexpr size_t kGhashPowersSize = 64;
void ClmulGhashInit(const uint8_t h[16], uint8_t powers[kGhashPowersSize]);
void ClmulGhashUpdate(const uint8_t powers[kGhashPowersSize], uint8_t y[16],
                      const uint8_t* data, size_t len);

void Sha256CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t n);
#endif  // __x86_64__

}  // namespace ccf::crypto::internal

#endif  // CCF_CRYPTO_KERNELS_H_
