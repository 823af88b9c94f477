#include "node/client_core.h"

#include "common/hex.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "node/wire.h"

namespace ccf::node {

namespace {

// Fails each callback in turn. They have left pending_ already, so a
// callback may issue new requests.
void FailEach(std::deque<ClientCore::ResponseCallback> callbacks,
              const Status& why) {
  for (ClientCore::ResponseCallback& cb : callbacks) cb(why);
}

http::Request JsonPost(const std::string& path, const json::Value& body) {
  http::Request req;
  req.method = "POST";
  req.path = path;
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(body.Dump());
  return req;
}

}  // namespace

ClientCore::ClientCore(crypto::PublicKeyBytes service_identity,
                       const crypto::KeyPair* key,
                       std::optional<crypto::Certificate> cert,
                       crypto::Drbg* drbg, SendFn send, WaitFn wait)
    : service_identity_(service_identity),
      key_(key),
      cert_(std::move(cert)),
      drbg_(drbg),
      send_(std::move(send)),
      wait_(std::move(wait)) {}

void ClientCore::StartSession() {
  std::deque<ResponseCallback> orphaned = Reset();
  session_ = std::make_unique<rpc::ClientSession>(service_identity_, key_,
                                                  cert_, drbg_);
  send_(WrapWire(kSessionRecord, session_->Start()));
  FailEach(std::move(orphaned),
           Status::Unavailable("session closed by reconnect"));
}

void ClientCore::EndSession(const Status& why) { FailEach(Reset(), why); }

std::deque<ClientCore::ResponseCallback> ClientCore::Reset() {
  session_.reset();
  parser_ = http::ResponseParser();
  queued_.clear();
  return std::exchange(pending_, {});
}

void ClientCore::SendRequest(http::Request request,
                             ResponseCallback callback) {
  if (session_ == nullptr) {
    callback(Status::FailedPrecondition("client not connected"));
    return;
  }
  pending_.push_back(std::move(callback));
  Bytes plaintext = request.Serialize();
  if (!session_->established()) {
    queued_.push_back(std::move(plaintext));
    return;
  }
  SealAndSend(plaintext);
}

void ClientCore::SealAndSend(ByteSpan plaintext) {
  auto record = session_->Seal(plaintext);
  if (record.ok()) send_(WrapWire(kSessionRecord, *record));
}

bool ClientCore::OnWire(ByteSpan wire) {
  if (session_ == nullptr || wire.empty() || wire[0] != kSessionRecord) {
    return true;
  }
  auto out = session_->OnRecord(wire.subspan(1));
  if (!out.ok()) {
    LOG_DEBUG << "client session error: " << out.status().ToString();
    return true;
  }
  if (out->established) {
    while (!queued_.empty()) {
      SealAndSend(queued_.front());
      queued_.pop_front();
    }
  }
  for (const Bytes& app_data : out->app_data) parser_.Feed(app_data);
  for (;;) {
    auto resp = parser_.Next();
    if (!resp.ok() || !resp->has_value()) return true;
    const bool closing = (*resp)->GetHeader("connection") == "close";
    if (!pending_.empty()) {
      ResponseCallback cb = std::move(pending_.front());
      pending_.pop_front();
      cb(std::move(**resp));
    }
    if (closing) {
      EndSession(Status::Unavailable("connection closed by the node"));
      return false;
    }
  }
}

Result<http::Response> ClientCore::Call(http::Request request,
                                        uint64_t timeout_ms) {
  // Shared, not stack-captured: on timeout the pending callback outlives
  // this frame and may still fire on a later reconnect or close.
  auto result = std::make_shared<std::optional<Result<http::Response>>>();
  SendRequest(std::move(request), [result](Result<http::Response> r) {
    *result = std::move(r);
  });
  RETURN_IF_ERROR(wait_([&] { return result->has_value(); }, timeout_ms));
  return std::move(**result);
}

Result<http::Response> ClientCore::Get(const std::string& path,
                                       uint64_t timeout_ms) {
  http::Request req;
  req.method = "GET";
  req.path = path;
  return Call(std::move(req), timeout_ms);
}

Result<http::Response> ClientCore::PostJson(const std::string& path,
                                            const json::Value& body,
                                            uint64_t timeout_ms) {
  return Call(JsonPost(path, body), timeout_ms);
}

Result<http::Response> ClientCore::PostJsonSigned(const std::string& path,
                                                  const json::Value& body,
                                                  uint64_t timeout_ms) {
  if (key_ == nullptr) {
    return Status::FailedPrecondition("client has no signing key");
  }
  http::Request req = JsonPost(path, body);
  auto digest = crypto::Sha256::Hash(req.body);
  auto sig = key_->Sign(ByteSpan(digest.data(), digest.size()));
  req.headers["x-ccf-signature"] = HexEncode(ByteSpan(sig.data(), sig.size()));
  return Call(std::move(req), timeout_ms);
}

std::optional<std::pair<uint64_t, uint64_t>> ClientCore::TxIdOf(
    const http::Response& response) {
  std::string header = response.GetHeader(http::kTxIdHeader);
  size_t dot = header.find('.');
  if (dot == std::string::npos) return std::nullopt;
  return std::make_pair(std::strtoull(header.c_str(), nullptr, 10),
                        std::strtoull(header.c_str() + dot + 1, nullptr, 10));
}

}  // namespace ccf::node
