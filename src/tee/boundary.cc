#include "tee/boundary.h"

#include "common/buffer.h"

namespace ccf::tee {

EnclaveBoundary::EnclaveBoundary(TeeMode mode, size_t buffer_capacity)
    : mode_(mode),
      host_to_enclave_(buffer_capacity),
      enclave_to_host_(buffer_capacity) {
  if (mode_ == TeeMode::kSgxSim) {
    Bytes key(crypto::kAes256KeySize, 0x42);
    // The portable kernel on purpose: this seal models the cost of SGX's
    // memory encryption and enclave transitions (Table 5's SGX-vs-virtual
    // gap). The AES-NI kernel would cut the modelled crossing about
    // fourfold, which speeds up the model, not CCF.
    seal_ = std::make_unique<crypto::AesGcm>(key,
                                             crypto::AesKernel::kPortable);
  }
}

void EnclaveBoundary::BindMetrics(observe::Registry* reg) {
  h2e_metrics_.messages = reg->GetCounter("tee.h2e.messages");
  h2e_metrics_.stalls = reg->GetCounter("tee.h2e.stalls");
  h2e_metrics_.ring_used = reg->GetGauge("tee.h2e.ring_used_bytes");
  e2h_metrics_.messages = reg->GetCounter("tee.e2h.messages");
  e2h_metrics_.stalls = reg->GetCounter("tee.e2h.stalls");
  e2h_metrics_.ring_used = reg->GetGauge("tee.e2h.ring_used_bytes");
  m_ring_full_ = reg->GetCounter("tee.ring_full");
}

bool EnclaveBoundary::Send(ds::RingBuffer* rb,
                           std::atomic<uint64_t>* counter,
                           const DirMetrics& dm, uint32_t type,
                           ByteSpan payload) {
  bool ok;
  if (mode_ == TeeMode::kVirtual) {
    ok = rb->TryWrite(type, payload);
  } else {
    // SGX-sim: seal the payload across the boundary.
    uint64_t n = seal_counter_.fetch_add(1, std::memory_order_relaxed);
    BufWriter ivw;
    ivw.U64(n);
    ivw.U32(type);
    Bytes iv = ivw.Take();  // 12 bytes
    Bytes sealed = seal_->Seal(iv, payload, {});
    BufWriter w;
    w.U64(n);
    w.Raw(sealed);
    ok = rb->TryWrite(type, w.data());
  }
  if (ok) {
    counter->fetch_add(1, std::memory_order_relaxed);
    if (dm.messages != nullptr) dm.messages->Inc();
    if (dm.ring_used != nullptr) dm.ring_used->Set(rb->used_bytes());
  } else {
    ring_full_count_.fetch_add(1, std::memory_order_relaxed);
    if (dm.stalls != nullptr) dm.stalls->Inc();
    if (m_ring_full_ != nullptr) m_ring_full_->Inc();
  }
  return ok;
}

bool EnclaveBoundary::Receive(ds::RingBuffer* rb, const DirMetrics& dm,
                              uint32_t* type, Bytes* payload) {
  if (mode_ == TeeMode::kVirtual) {
    bool ok = rb->TryRead(type, payload);
    if (ok && dm.ring_used != nullptr) dm.ring_used->Set(rb->used_bytes());
    return ok;
  }
  Bytes sealed_msg;
  if (!rb->TryRead(type, &sealed_msg)) return false;
  if (dm.ring_used != nullptr) dm.ring_used->Set(rb->used_bytes());
  BufReader r(sealed_msg);
  auto n = r.U64();
  if (!n.ok()) return false;
  auto sealed = r.Raw(r.remaining());
  if (!sealed.ok()) return false;
  BufWriter ivw;
  ivw.U64(*n);
  ivw.U32(*type);
  auto opened = seal_->Open(ivw.data(), *sealed, {});
  if (!opened.ok()) return false;
  *payload = opened.take();
  return true;
}

bool EnclaveBoundary::HostSend(uint32_t type, ByteSpan payload) {
  return Send(&host_to_enclave_, &h2e_count_, h2e_metrics_, type, payload);
}

bool EnclaveBoundary::HostReceive(uint32_t* type, Bytes* payload) {
  return Receive(&enclave_to_host_, e2h_metrics_, type, payload);
}

bool EnclaveBoundary::EnclaveSend(uint32_t type, ByteSpan payload) {
  return Send(&enclave_to_host_, &e2h_count_, e2h_metrics_, type, payload);
}

bool EnclaveBoundary::EnclaveReceive(uint32_t* type, Bytes* payload) {
  return Receive(&host_to_enclave_, h2e_metrics_, type, payload);
}

}  // namespace ccf::tee
