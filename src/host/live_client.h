// LiveClient: the live-mode counterpart of node::Client — a user or
// member client speaking STLS-over-TCP to a live node's RPC port.
//
// A node::ClientCore whose byte pipe is one framed TCP socket (a frame
// body is what a simulated Environment::Send would carry, so the enclave
// cannot tell the two drivers apart) and whose wait loop is poll. It is
// single-threaded: the owning thread calls Connect, then either the
// blocking conveniences or the pipelined pair SendRequest + PollOnce,
// which is what the closed-loop bench harness drives.

#ifndef CCF_HOST_LIVE_CLIENT_H_
#define CCF_HOST_LIVE_CLIENT_H_

#include <optional>
#include <string>

#include "node/client_core.h"

namespace ccf::host {

class LiveClient : public node::ClientCore {
 public:
  // `key`/`cert` may be null/empty for anonymous clients.
  LiveClient(std::string client_id, crypto::PublicKeyBytes service_identity,
             const crypto::KeyPair* key = nullptr,
             std::optional<crypto::Certificate> cert = std::nullopt);
  // Closes the connection, failing pending callbacks.
  ~LiveClient();

  // Dials host:port and completes the STLS handshake (or fails by
  // `timeout_ms`). Reconnecting fails outstanding callbacks first.
  Status Connect(const std::string& host, uint16_t port,
                 uint64_t timeout_ms = 5000);
  bool connected() const { return fd_ >= 0 && established(); }
  void Close();

  // Processes socket IO for up to `timeout_ms` (one poll round) and
  // dispatches any completed responses. Returns false once the connection
  // is closed (all pending callbacks have been failed).
  bool PollOnce(int timeout_ms);

 private:
  // One poll round; false when the connection must close.
  bool PumpSocket(int timeout_ms);
  bool TryWrite();
  // Polls until `done()` holds, the connection closes, or the timeout.
  Status PollUntil(const std::function<bool()>& done, uint64_t timeout_ms);

  crypto::Drbg drbg_;  // used only once a session starts
  int fd_ = -1;
  Bytes inbuf_;
  Bytes outbuf_;
  size_t out_off_ = 0;
};

}  // namespace ccf::host

#endif  // CCF_HOST_LIVE_CLIENT_H_
