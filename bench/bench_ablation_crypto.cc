// Ablation: costs of the cryptographic building blocks on the hot path —
// explains where the per-request and per-signature time in Figures 7/8
// goes (GCM per session record and channel message; SHA-256 per Merkle
// leaf; Schnorr sign per signature transaction).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"
#include "crypto/sign.h"
#include "merkle/merkle.h"

namespace {

using namespace ccf;

void BM_Sha256(benchmark::State& state) {
  crypto::Drbg drbg("bench", 0);
  Bytes data = drbg.Generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// The 1 MiB case exercises the multi-block compression fast path in
// Sha256::Update (whole blocks hashed straight from the input span).
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1 << 20);

// 4 equal-length messages through the interleaved kernel vs 4 scalar
// hashes — the ablation for MerkleTree::AppendBatch's inner loop.
void BM_Sha256x4(benchmark::State& state) {
  crypto::Drbg drbg("bench", 0);
  Bytes data[4];
  const uint8_t* ptrs[4];
  for (int i = 0; i < 4; ++i) {
    data[i] = drbg.Generate(state.range(0));
    ptrs[i] = data[i].data();
  }
  crypto::Sha256Digest out[4];
  for (auto _ : state) {
    crypto::Sha256x4(ptrs, state.range(0), out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_Sha256x4)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256x4Scalar(benchmark::State& state) {
  crypto::Drbg drbg("bench", 0);
  Bytes data[4];
  for (int i = 0; i < 4; ++i) data[i] = drbg.Generate(state.range(0));
  crypto::Sha256Digest out[4];
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) out[i] = crypto::Sha256::Hash(data[i]);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_Sha256x4Scalar)->Arg(64)->Arg(1024)->Arg(65536);

void BM_AesGcmSeal(benchmark::State& state) {
  crypto::Drbg drbg("bench", 1);
  crypto::AesGcm gcm(drbg.Generate(32));
  Bytes iv = drbg.Generate(12);
  Bytes data = drbg.Generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.Seal(iv, data, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1024)->Arg(65536);

// Portable vs hardware kernels for the same call (the default picks the
// hardware one where the CPU has it). The hardware rows report an error
// instead of a time on CPUs without the instructions.
void BM_AesGcmSealKernel(benchmark::State& state, crypto::AesKernel kernel) {
  crypto::Drbg drbg("bench", 1);
  crypto::AesGcm gcm(drbg.Generate(32), kernel);
  if (kernel == crypto::AesKernel::kFastest && !gcm.hardware()) {
    state.SkipWithError("CPU lacks AES-NI/PCLMULQDQ");
    return;
  }
  Bytes iv = drbg.Generate(12);
  Bytes data = drbg.Generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.Seal(iv, data, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_AesGcmSealKernel, portable, crypto::AesKernel::kPortable)
    ->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK_CAPTURE(BM_AesGcmSealKernel, hardware, crypto::AesKernel::kFastest)
    ->Arg(64)->Arg(1024)->Arg(65536);

// The SHA-NI kernel, or nullptr where the CPU lacks it.
crypto::internal::Sha256CompressFn ShaNiOrNull() {
#if defined(__x86_64__)
  if (crypto::internal::CpuHasSha()) {
    return crypto::internal::Sha256CompressShaNi;
  }
#endif
  return nullptr;
}

void BM_Sha256Kernel(benchmark::State& state,
                     crypto::internal::Sha256CompressFn compress) {
  if (compress == nullptr) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  crypto::Drbg drbg("bench", 0);
  Bytes data = drbg.Generate(state.range(0));
  for (auto _ : state) {
    crypto::Sha256 h(compress);
    h.Update(data);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256Kernel, portable,
                  crypto::internal::Sha256CompressPortable)
    ->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_Sha256Kernel, hardware, ShaNiOrNull())->Arg(64)->Arg(1024);

void BM_SchnorrSign(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  Bytes msg = ToBytes("merkle root signature payload, 48 bytes or so...");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  Bytes msg = ToBytes("merkle root signature payload, 48 bytes or so...");
  auto sig = kp.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Verify(kp.public_key(), msg, sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchnorrVerify);

void BM_EcdhSharedSecret(benchmark::State& state) {
  crypto::KeyPair a = crypto::KeyPair::FromSeed(ToBytes("a"));
  crypto::KeyPair b = crypto::KeyPair::FromSeed(ToBytes("b"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DeriveSharedSecret(b.public_key()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcdhSharedSecret);

void BM_MerkleAppend(benchmark::State& state) {
  merkle::MerkleTree tree;
  Bytes leaf = ToBytes("transaction leaf content 0123456789");
  for (auto _ : state) {
    tree.Append(leaf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleAppend);

// Batched vs serial replay of a raft append batch / ledger segment.
void BM_MerkleAppendBatch(benchmark::State& state) {
  const size_t n = state.range(0);
  std::vector<Bytes> leaves;
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(ToBytes("transaction leaf content 0123456789"));
  }
  for (auto _ : state) {
    merkle::MerkleTree tree;
    tree.AppendBatch(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MerkleAppendBatch)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MerkleAppendSerial(benchmark::State& state) {
  const size_t n = state.range(0);
  Bytes leaf = ToBytes("transaction leaf content 0123456789");
  for (auto _ : state) {
    merkle::MerkleTree tree;
    for (size_t i = 0; i < n; ++i) tree.Append(leaf);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MerkleAppendSerial)->Arg(64)->Arg(1024)->Arg(16384);

// Batch signature verification (audit replay, backup commit boundary,
// joiner catch-up) vs one-at-a-time verification.
std::vector<crypto::BatchVerifyItem> MakeVerifyItems(
    size_t n, std::vector<Bytes>* msgs,
    std::vector<crypto::SignatureBytes>* sigs, crypto::KeyPair* kp) {
  msgs->clear();
  sigs->clear();
  for (size_t i = 0; i < n; ++i) {
    msgs->push_back(ToBytes("signed merkle root #" + std::to_string(i)));
    sigs->push_back(kp->Sign(msgs->back()));
  }
  std::vector<crypto::BatchVerifyItem> items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back({kp->public_key(), (*msgs)[i], (*sigs)[i]});
  }
  return items;
}

void BM_VerifyBatch(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  std::vector<Bytes> msgs;
  std::vector<crypto::SignatureBytes> sigs;
  auto items = MakeVerifyItems(state.range(0), &msgs, &sigs, &kp);
  crypto::Drbg drbg("bench-batch-verify", 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::VerifyBatch(items, &drbg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifyBatch)->Arg(4)->Arg(16)->Arg(64);

void BM_VerifySerial(benchmark::State& state) {
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  std::vector<Bytes> msgs;
  std::vector<crypto::SignatureBytes> sigs;
  auto items = MakeVerifyItems(state.range(0), &msgs, &sigs, &kp);
  for (auto _ : state) {
    bool all = true;
    for (const auto& it : items) {
      all = all && crypto::Verify(it.pub, it.msg, it.sig);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifySerial)->Arg(4)->Arg(16)->Arg(64);

void BM_MerkleRoot(benchmark::State& state) {
  merkle::MerkleTree tree;
  for (int i = 0; i < state.range(0); ++i) {
    tree.Append(ToBytes("leaf " + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(1000)->Arg(100000);

void BM_MerkleProof(benchmark::State& state) {
  merkle::MerkleTree tree;
  const uint64_t n = state.range(0);
  for (uint64_t i = 0; i < n; ++i) {
    tree.Append(ToBytes("leaf " + std::to_string(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.GetProof(i++ % n, n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleProof)->Arg(1000)->Arg(100000);

// Run before any timing: the portable and hardware kernels must produce
// the same bytes, and the batch kernels must (a) be bit-equivalent to
// their scalar counterparts and (b) actually engage (stats counters move).
// A silent fallback to the scalar path would make the ablation numbers
// meaningless.
bool AssertKernelsAgree(crypto::Drbg* drbg) {
  for (size_t len : {0u, 1u, 16u, 64u, 129u, 1024u, 4099u}) {
    Bytes key = drbg->Generate(32);
    Bytes iv = drbg->Generate(12);
    Bytes data = drbg->Generate(len);
    Bytes aad = drbg->Generate(len % 37);
    crypto::AesGcm fastest(key), portable(key, crypto::AesKernel::kPortable);
    if (fastest.Seal(iv, data, aad) != portable.Seal(iv, data, aad)) {
      std::fprintf(stderr, "selftest: AES-GCM kernels disagree at %zu B\n",
                   len);
      return false;
    }
    crypto::Sha256 sw(crypto::internal::Sha256CompressPortable);
    sw.Update(data);
    if (crypto::Sha256::Hash(data) != sw.Finish()) {
      std::fprintf(stderr, "selftest: SHA-256 kernels disagree at %zu B\n",
                   len);
      return false;
    }
  }
  return true;
}

bool AssertBatchKernelsEngage() {
  crypto::Drbg drbg("bench-selftest", 0);
  if (!AssertKernelsAgree(&drbg)) return false;

  // Sha256x4 == 4 independent Sha256.
  for (size_t len : {0u, 1u, 55u, 56u, 64u, 300u}) {
    Bytes data[4];
    const uint8_t* ptrs[4];
    for (int i = 0; i < 4; ++i) {
      data[i] = drbg.Generate(len);
      ptrs[i] = data[i].data();
    }
    crypto::Sha256Digest out[4];
    crypto::Sha256x4(ptrs, len, out);
    for (int i = 0; i < 4; ++i) {
      if (out[i] != crypto::Sha256::Hash(data[i])) {
        std::fprintf(stderr, "selftest: Sha256x4 mismatch at len %zu\n", len);
        return false;
      }
    }
  }

  // AppendBatch == serial Append, and the 4-way kernel engaged.
  std::vector<Bytes> leaves;
  for (int i = 0; i < 37; ++i) {
    leaves.push_back(ToBytes("transaction leaf content 0123456789"));
  }
  merkle::MerkleTree batched, serial;
  batched.AppendBatch(leaves);
  for (const Bytes& l : leaves) serial.Append(l);
  if (batched.Root() != serial.Root()) {
    std::fprintf(stderr, "selftest: AppendBatch root mismatch\n");
    return false;
  }
  if (batched.stats().x4_groups == 0) {
    std::fprintf(stderr, "selftest: AppendBatch never used Sha256x4\n");
    return false;
  }

  // VerifyBatch passes valid batches and flags a forgery.
  crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("bench"));
  std::vector<Bytes> msgs;
  std::vector<crypto::SignatureBytes> sigs;
  auto items = MakeVerifyItems(8, &msgs, &sigs, &kp);
  if (!crypto::VerifyBatch(items, &drbg)) {
    std::fprintf(stderr, "selftest: VerifyBatch rejected valid batch\n");
    return false;
  }
  sigs[3][0] ^= 1;
  std::vector<bool> ok;
  if (crypto::VerifyBatch(items, &drbg, &ok) || ok[3] || !ok[2]) {
    std::fprintf(stderr, "selftest: VerifyBatch missed a forgery\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!AssertBatchKernelsEngage()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
