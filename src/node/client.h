// A user (or consortium member) client in the simulation: a ClientCore
// (node/client_core.h) whose byte pipe is the simulated network and whose
// wait loop runs the simulation.

#ifndef CCF_NODE_CLIENT_H_
#define CCF_NODE_CLIENT_H_

#include <optional>
#include <string>

#include "node/client_core.h"
#include "sim/environment.h"

namespace ccf::node {

class Client : public ClientCore {
 public:
  // `key`/`cert` may be null/empty for anonymous clients.
  Client(std::string client_id, sim::Environment* env,
         crypto::PublicKeyBytes service_identity,
         const crypto::KeyPair* key = nullptr,
         std::optional<crypto::Certificate> cert = std::nullopt);
  ~Client();

  // Opens (or re-opens) a session to `node_id`; requests of an earlier
  // session fail. Blocking calls run the simulation until they complete.
  void Connect(const std::string& node_id);
  bool connected() const { return established(); }

 private:
  std::string client_id_;
  sim::Environment* env_;
  std::string node_id_;
  crypto::Drbg drbg_;  // used only once a session starts
};

}  // namespace ccf::node

#endif  // CCF_NODE_CLIENT_H_
