#include "node/client.h"

namespace ccf::node {

Client::Client(std::string client_id, sim::Environment* env,
               crypto::PublicKeyBytes service_identity,
               const crypto::KeyPair* key,
               std::optional<crypto::Certificate> cert)
    : ClientCore(
          service_identity, key, std::move(cert), &drbg_,
          [this](Bytes wire) {
            env_->Send(client_id_, node_id_, std::move(wire));
          },
          [this](const std::function<bool()>& done, uint64_t timeout_ms) {
            return env_->RunUntil(done, timeout_ms)
                       ? Status::Ok()
                       : Status::Unavailable("request timed out");
          }),
      client_id_(std::move(client_id)),
      env_(env),
      drbg_("ccf-client-" + client_id_, 0) {
  env_->Register(
      client_id_,
      [this](const std::string& from, ByteSpan data) {
        if (from == node_id_) OnWire(data);
      },
      [](uint64_t) {});
}

Client::~Client() { env_->Unregister(client_id_); }

void Client::Connect(const std::string& node_id) {
  node_id_ = node_id;
  StartSession();
}

}  // namespace ccf::node
