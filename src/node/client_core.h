// The client side of an STLS session to a CCF node, without a transport.
//
// Users, members and joining nodes all reach the service the same way
// (paper §4.4, §6.1): a session that ends inside the enclave and pins the
// service identity, carrying pipelined HTTP/1.1. ClientCore is that client
// once: session, requests queued until the handshake completes, FIFO
// response matching, failing pending callbacks, and the blocking and
// signed-request conveniences. A driver supplies only its byte pipe and
// its wait loop: node::Client (simulated network), host::LiveClient (TCP)
// and the joiner inside node::Node (its enclave outbox).

#ifndef CCF_NODE_CLIENT_CORE_H_
#define CCF_NODE_CLIENT_CORE_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "crypto/cert.h"
#include "http/http.h"
#include "json/json.h"
#include "rpc/session.h"

namespace ccf::node {

class ClientCore {
 public:
  using ResponseCallback = std::function<void(Result<http::Response>)>;
  // Carries one wire message (session-record kind byte + STLS record).
  using SendFn = std::function<void(Bytes wire)>;
  // Runs the driver's IO until `done()` holds, or says why it gave up.
  using WaitFn = std::function<Status(const std::function<bool()>& done,
                                      uint64_t timeout_ms)>;

  // `key`/`cert` may be null/empty for anonymous clients; `drbg` must
  // outlive the core. `send` gets every outbound wire message, the driver
  // feeds every inbound one to OnWire, and `wait` backs the blocking calls
  // (none for a driver that never blocks). Destroying the core drops
  // pending callbacks without calling them.
  ClientCore(crypto::PublicKeyBytes service_identity,
             const crypto::KeyPair* key,
             std::optional<crypto::Certificate> cert, crypto::Drbg* drbg,
             SendFn send, WaitFn wait = nullptr);
  // Drivers hand their own address to `send` and `wait`: no copies.
  ClientCore(const ClientCore&) = delete;
  ClientCore& operator=(const ClientCore&) = delete;

  // Starts a fresh session and sends its hello. Requests of an earlier
  // session are dropped and their callbacks fail; a callback that issues
  // a new request puts it on the fresh session.
  void StartSession();
  // Drops queued requests and fails pending callbacks with `why`, one at a
  // time.
  void EndSession(const Status& why);
  bool established() const {
    return session_ != nullptr && session_->established();
  }

  // Sends `request`, or queues it until the handshake completes. The
  // callback gets the response (in request order) or the failure.
  void SendRequest(http::Request request, ResponseCallback callback);

  // Blocking conveniences: send, then wait for the response or timeout.
  Result<http::Response> Call(http::Request request,
                              uint64_t timeout_ms = 5000);
  Result<http::Response> Get(const std::string& path,
                             uint64_t timeout_ms = 5000);
  Result<http::Response> PostJson(const std::string& path,
                                  const json::Value& body,
                                  uint64_t timeout_ms = 5000);
  // Signs the body with the client key, as governance requires
  // (x-ccf-signature: hex signature over SHA-256 of the body).
  Result<http::Response> PostJsonSigned(const std::string& path,
                                        const json::Value& body,
                                        uint64_t timeout_ms = 5000);

  // Processes one wire message from the node. False once the node
  // announced "connection: close" (the session has then ended).
  bool OnWire(ByteSpan wire);

  // Parses the transaction ID header of a response ("view.seqno").
  static std::optional<std::pair<uint64_t, uint64_t>> TxIdOf(
      const http::Response& response);

 private:
  // Drops the session, parser and queue; returns the pending callbacks
  // for the caller to fail.
  std::deque<ResponseCallback> Reset();
  void SealAndSend(ByteSpan plaintext);

  crypto::PublicKeyBytes service_identity_;
  const crypto::KeyPair* key_;
  std::optional<crypto::Certificate> cert_;
  crypto::Drbg* drbg_;
  SendFn send_;
  WaitFn wait_;

  std::unique_ptr<rpc::ClientSession> session_;
  http::ResponseParser parser_;
  std::deque<Bytes> queued_;  // serialized requests awaiting the handshake
  std::deque<ResponseCallback> pending_;
};

}  // namespace ccf::node

#endif  // CCF_NODE_CLIENT_CORE_H_
