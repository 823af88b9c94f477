// Live-mode service harness: builds real multi-node CCF services over
// loopback TCP (LiveNodeHost + LiveClient) on the consortium bring-up it
// shares with the simulator's ServiceHarness (tests/service_harness.h),
// so governance flows are identical under both drivers.
//
// Everything here runs on wall-clock time: waits are real sleeps with
// deadlines, sized for the FastNodeConfig timeouts (elections 50-100ms).

#ifndef CCF_TESTS_LIVE_HARNESS_H_
#define CCF_TESTS_LIVE_HARNESS_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "host/live_client.h"
#include "host/live_node.h"
#include "tests/service_harness.h"

namespace ccf::testing {

inline bool LiveWaitFor(const std::function<bool()>& pred,
                        uint64_t timeout_ms = 5000) {
  uint64_t deadline = host::SteadyNowMs() + timeout_ms;
  while (host::SteadyNowMs() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class LiveServiceHarness
    : public ConsortiumHarness<LiveServiceHarness, host::LiveClient> {
 public:
  static constexpr uint64_t kGovTimeoutMs = 10000;

  explicit LiveServiceHarness(int num_members = 3)
      : ConsortiumHarness(num_members) {}
  // Close client sockets before the nodes go away.
  ~LiveServiceHarness() { DropClients(); }

  // Starts n0 with the logging app and waits for it to become primary.
  host::LiveNodeHost* StartGenesis(bool open_immediately = true) {
    host::LiveNodeConfig cfg;
    cfg.node = ConfigFor("n0", /*joiner=*/false);
    auto started = host::LiveNodeHost::StartGenesis(
        std::move(cfg), GenesisInit(open_immediately), &logging_app_);
    if (!started.ok()) return nullptr;
    host::LiveNodeHost* ptr = started->get();
    hosts_["n0"] = std::move(*started);
    service_identity_ = ptr->WithNode(
        [](node::Node* n) { return n->service_identity(); });
    return PrimaryId() == "n0" ? ptr : nullptr;
  }

  // Starts `id` as a joiner peered with every running node.
  host::LiveNodeHost* Join(const std::string& id,
                           const std::string& target = "n0") {
    host::LiveNodeConfig cfg;
    cfg.node = ConfigFor(id, /*joiner=*/true);
    for (auto& [nid, h] : hosts_) {
      cfg.transport.peers[nid] =
          "127.0.0.1:" + std::to_string(h->node_port());
    }
    auto started = host::LiveNodeHost::StartJoiner(
        std::move(cfg), service_identity_, target, &logging_app_);
    if (!started.ok()) return nullptr;
    host::LiveNodeHost* ptr = started->get();
    // Symmetric addressing: existing nodes learn where the joiner listens
    // so they can redial it after a link loss, not just answer its dials.
    for (auto& [nid, h] : hosts_) {
      h->AddPeer(id, "127.0.0.1:" + std::to_string(ptr->node_port()));
    }
    hosts_[id] = std::move(*started);
    return ptr;
  }

  host::LiveNodeHost* host(const std::string& id) {
    auto it = hosts_.find(id);
    return it != hosts_.end() ? it->second.get() : nullptr;
  }

  // Hard-stops a node (host threads + enclave). Clients connected to it
  // see their connections die; peers redial until it returns.
  void Kill(const std::string& id) {
    DropClients();  // some may point at the dead node; cheap to rebuild
    hosts_.erase(id);
  }

  // Polls for a node that believes it is primary (highest view wins).
  std::string PrimaryId(uint64_t timeout_ms = 5000) {
    std::string primary;
    LiveWaitFor(
        [&] {
          primary = CurrentPrimaryId();
          return !primary.empty();
        },
        timeout_ms);
    return primary;
  }

 private:
  friend class ConsortiumHarness<LiveServiceHarness, host::LiveClient>;

  bool WaitFor(const std::function<bool()>& pred, uint64_t timeout_ms) {
    return LiveWaitFor(pred, timeout_ms);
  }
  template <class F>
  bool AllNodes(F&& pred) {
    for (auto& entry : hosts_) {
      if (!entry.second->WithNode(
              [&](node::Node* n) { return pred(entry.first, n); })) {
        return false;
      }
    }
    return true;
  }
  bool Joined(const std::string& id) {
    host::LiveNodeHost* h = host(id);
    return h != nullptr &&
           h->WithNode([](node::Node* n) { return n->has_joined(); });
  }
  std::unique_ptr<host::LiveClient> Dial(
      const std::string& label, const crypto::KeyPair* key,
      std::optional<crypto::Certificate> cert, const std::string& node_id) {
    auto client = std::make_unique<host::LiveClient>(label, service_identity_,
                                                     key, std::move(cert));
    host::LiveNodeHost* h = host(node_id);
    if (h == nullptr || !client->Connect("127.0.0.1", h->rpc_port()).ok()) {
      return nullptr;
    }
    return client;
  }

  crypto::PublicKeyBytes service_identity_{};
  std::map<std::string, std::unique_ptr<host::LiveNodeHost>> hosts_;
};

}  // namespace ccf::testing

#endif  // CCF_TESTS_LIVE_HARNESS_H_
