// The host/enclave boundary (paper §2, Figure 2, §7).
//
// "The host and the TEE communicate via a pair of lock-free multi-producer
// single-consumer ringbuffers." This class is that pair plus the TEE-mode
// cost model:
//   - kVirtual: payloads cross as plain copies (CCF's virtual mode).
//   - kSgxSim:  every payload crossing the boundary is AES-256-GCM sealed
//     on one side and opened on the other. This is a *mechanistic* stand-in
//     for SGX's memory-encryption/transition overhead — real work on the
//     actual bytes, not a sleep — reproducing the SGX-vs-virtual gap of
//     Table 5 in shape. It always runs the portable AES-GCM kernel, so the
//     modelled cost does not depend on the host CPU's AES instructions.

#ifndef CCF_TEE_BOUNDARY_H_
#define CCF_TEE_BOUNDARY_H_

#include <atomic>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/gcm.h"
#include "ds/ringbuffer.h"
#include "observe/metrics.h"

namespace ccf::tee {

enum class TeeMode { kVirtual, kSgxSim };

inline const char* TeeModeName(TeeMode m) {
  return m == TeeMode::kVirtual ? "virtual" : "sgx-sim";
}

class EnclaveBoundary {
 public:
  explicit EnclaveBoundary(TeeMode mode, size_t buffer_capacity = 8 << 20);

  TeeMode mode() const { return mode_; }

  // Host side.
  bool HostSend(uint32_t type, ByteSpan payload);
  bool HostReceive(uint32_t* type, Bytes* payload);

  // Enclave side.
  bool EnclaveSend(uint32_t type, ByteSpan payload);
  bool EnclaveReceive(uint32_t* type, Bytes* payload);

  // Number of messages that crossed in each direction (diagnostics).
  uint64_t host_to_enclave_count() const { return h2e_count_; }
  uint64_t enclave_to_host_count() const { return e2h_count_; }

  // Registers per-direction metrics (message counts, full-ring stalls,
  // ring occupancy gauges whose max() is the high-water mark) plus the
  // shared `tee.ring_full` counter of rejected writes. Call once, before
  // traffic; unbound boundaries record nothing.
  void BindMetrics(observe::Registry* reg);

  // Total sends rejected because a ring was full (either direction).
  // Callers are expected to retry or park the producer — a full ring is
  // backpressure, never an error (see DESIGN.md §13).
  uint64_t ring_full_count() const { return ring_full_count_; }

 private:
  struct DirMetrics {
    observe::Counter* messages = nullptr;
    observe::Counter* stalls = nullptr;
    observe::Gauge* ring_used = nullptr;
  };

  bool Send(ds::RingBuffer* rb, std::atomic<uint64_t>* counter,
            const DirMetrics& dm, uint32_t type, ByteSpan payload);
  bool Receive(ds::RingBuffer* rb, const DirMetrics& dm, uint32_t* type,
               Bytes* payload);

  TeeMode mode_;
  ds::RingBuffer host_to_enclave_;
  ds::RingBuffer enclave_to_host_;
  // SGX-sim sealing state. A fixed process key is fine: this models a cost,
  // not a security boundary inside the simulation.
  std::unique_ptr<crypto::AesGcm> seal_;
  std::atomic<uint64_t> seal_counter_{0};
  std::atomic<uint64_t> h2e_count_{0};
  std::atomic<uint64_t> e2h_count_{0};
  std::atomic<uint64_t> ring_full_count_{0};
  DirMetrics h2e_metrics_;
  DirMetrics e2h_metrics_;
  observe::Counter* m_ring_full_ = nullptr;
};

}  // namespace ccf::tee

#endif  // CCF_TEE_BOUNDARY_H_
