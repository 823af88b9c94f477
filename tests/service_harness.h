// End-to-end test harness: builds full CCF services (genesis + joiners +
// consortium + users) in the deterministic simulation.
//
// The consortium bring-up itself (ConsortiumHarness) is shared with the
// live harness in tests/live_harness.h, so governance flows are identical
// under both drivers.

#ifndef CCF_TESTS_SERVICE_HARNESS_H_
#define CCF_TESTS_SERVICE_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/logging.h"
#include "gov/records.h"
#include "kv/snapshot.h"
#include "node/client.h"
#include "node/node.h"
#include "sim/invariants.h"

namespace ccf::testing {

inline node::NodeConfig FastNodeConfig(const std::string& id,
                                       uint64_t seed = 0) {
  node::NodeConfig cfg;
  cfg.node_id = id;
  cfg.seed = seed;
  cfg.raft.election_timeout_min_ms = 50;
  cfg.raft.election_timeout_max_ms = 100;
  cfg.raft.heartbeat_interval_ms = 10;
  cfg.raft.primary_quiesce_timeout_ms = 300;
  cfg.raft.seed = seed;
  cfg.signature_interval_txs = 5;
  cfg.signature_interval_ms = 30;
  cfg.snapshot_interval_txs = 50;
  return cfg;
}

// A principal with a deterministic key and a certificate for it.
struct TestUser {
  std::string id;
  crypto::KeyPair key;
  crypto::Certificate cert;

  explicit TestUser(const std::string& id, const std::string& role = "user",
                    const std::string& key_seed = "")
      : id(id),
        key(crypto::KeyPair::FromSeed(
            ToBytes(key_seed.empty() ? "user-key-" + id : key_seed))),
        cert(crypto::IssueCertificate(id, role, key.public_key(), key, "")) {
  }
};

struct Consortium {
  std::vector<TestUser> members;

  explicit Consortium(int n) {
    for (int i = 0; i < n; ++i) {
      members.emplace_back("member" + std::to_string(i), "member",
                           "member-key-" + std::to_string(i));
    }
  }
};

// Consortium bring-up shared by both harnesses. The driver `D` keeps only
// how it waits and how it reaches a node: kGovTimeoutMs, WaitFor(pred,
// timeout_ms), AllNodes(pred(id, node)) over reachable nodes, Joined(id),
// Join(id, ...) and Dial(label, key, cert, node_id).
template <class D, class ClientT>
class ConsortiumHarness {
 public:
  explicit ConsortiumHarness(int num_members) : consortium_(num_members) {}

  Consortium& consortium() { return consortium_; }

  // Benchmarks tweak node configs (TEE mode, signature cadence) before
  // nodes start.
  void SetConfigTweak(std::function<void(node::NodeConfig*)> tweak) {
    config_tweak_ = std::move(tweak);
  }

  // Adds a user before genesis.
  TestUser* AddUser(const std::string& id) {
    users_[id] = std::make_unique<TestUser>(id);
    return users_[id].get();
  }

  // Governance requests are submitted through member clients connected to
  // this node (writes forward to the primary). Point it at a live node
  // after killing n0.
  void SetGovNode(const std::string& id) { gov_node_ = id; }

  // Cached clients connected to `node_id`; null if they cannot connect.
  ClientT* UserClient(const std::string& user_id,
                      const std::string& node_id = "n0") {
    return CachedClient(users_.at(user_id).get(), node_id);
  }
  ClientT* MemberClient(size_t idx, const std::string& node_id = "n0") {
    return CachedClient(&consortium_.members.at(idx), node_id);
  }
  ClientT* AnonymousClient(const std::string& node_id = "n0") {
    return CachedClient(nullptr, node_id);
  }
  void DropClients() { clients_.clear(); }

  // Starts node `id` as a joiner (`join_args` go to the driver's Join),
  // waits for its join handshake, and drives governance to trust it.
  template <class... JoinArgs>
  auto* JoinAndTrust(const std::string& id,
                     uint64_t timeout_ms = D::kGovTimeoutMs,
                     JoinArgs&&... join_args) {
    auto* joiner = self().Join(id, std::forward<JoinArgs>(join_args)...);
    auto joined = [&] { return self().Joined(id); };
    bool trusted = joiner != nullptr && self().WaitFor(joined, timeout_ms) &&
                   TrustNode(id, timeout_ms);
    return trusted ? joiner : nullptr;
  }

  // Proposes transition_node_to_trusted and votes it through.
  bool TrustNode(const std::string& id,
                 uint64_t timeout_ms = D::kGovTimeoutMs) {
    json::Object args;
    args["node_id"] = id;
    if (!RunProposal("transition_node_to_trusted",
                     json::Value(std::move(args)), timeout_ms)) {
      return false;
    }
    // Wait until the node participates and its reconfiguration has
    // committed everywhere: each live node prunes to a single active
    // configuration containing the joiner. Stopping at mere append would
    // leave the old configuration active, and a primary failure in that
    // window stalls elections on the old quorum (inherent to
    // reconfiguration, paper §4.4) -- not what these tests exercise.
    return self().WaitFor(
        [&] {
          return self().Joined(id) &&
                 self().AllNodes([&](const std::string&, node::Node* n) {
                   if (n->retired()) return true;
                   const auto& configs = n->raft().active_configs();
                   return configs.size() == 1 &&
                          configs.front().nodes.count(id) != 0;
                 });
        },
        timeout_ms);
  }

  // Submits {actions: [{name, args}]} and votes yes with a majority.
  // Returns true if accepted.
  bool RunProposal(const std::string& action, json::Value args,
                   uint64_t timeout_ms = D::kGovTimeoutMs) {
    // A signed governance request from member `i`; its parsed reply.
    auto post = [&](size_t i, const std::string& path,
                    json::Object body) -> std::optional<json::Value> {
      ClientT* m = MemberClient(i, gov_node_);
      if (m == nullptr) return std::nullopt;
      auto resp =
          m->PostJsonSigned(path, json::Value(std::move(body)), timeout_ms);
      if (!resp.ok() || resp->status != 200) return std::nullopt;
      auto parsed = json::Parse(ToString(resp->body));
      if (!parsed.ok()) return std::nullopt;
      return std::move(*parsed);
    };
    json::Object act;
    act["name"] = action;
    act["args"] = std::move(args);
    json::Object proposal;
    proposal["actions"] = json::Array{json::Value(std::move(act))};
    json::Object body;
    body["proposal"] = std::move(proposal);
    auto proposed = post(0, "/gov/propose", std::move(body));
    if (!proposed.has_value()) return false;
    std::string pid = proposed->GetString("proposal_id");
    std::string state = proposed->GetString("state");

    // Vote with members until accepted.
    for (size_t i = 0; i < consortium_.members.size() && state == "Open";
         ++i) {
      json::Object ballot;
      ballot["proposal_id"] = pid;
      ballot["ballot"] =
          "function vote(proposal, proposer_id) { return true; }";
      auto voted = post(i, "/gov/vote", std::move(ballot));
      if (!voted.has_value()) return false;
      state = voted->GetString("state");
    }
    return state == "Accepted";
  }

  // Waits until `seqno` is committed on all live, joined nodes.
  bool WaitForCommitEverywhere(uint64_t seqno, uint64_t timeout_ms = 8000) {
    return self().WaitFor(
        [&] {
          return self().AllNodes([&](const std::string&, node::Node* n) {
            return !n->has_joined() || !n->raft().InActiveConfig() ||
                   n->commit_seqno() >= seqno;
          });
        },
        timeout_ms);
  }

 protected:
  node::ServiceInit GenesisInit(bool open_immediately) const {
    node::ServiceInit init;
    for (const TestUser& m : consortium_.members) {
      init.members.push_back({m.id, m.cert.Serialize(), m.key.public_key()});
    }
    init.open_immediately = open_immediately;
    for (const auto& [id, user] : users_) {
      init.initial_users.emplace_back(id, user->cert.Serialize());
    }
    return init;
  }
  // FastNodeConfig plus the tweak; a joiner's seed derives from its id.
  node::NodeConfig ConfigFor(const std::string& id, bool joiner) const {
    node::NodeConfig cfg =
        FastNodeConfig(id, joiner ? std::hash<std::string>{}(id) % 1000 : 0);
    if (config_tweak_) config_tweak_(&cfg);
    return cfg;
  }

  // The node that believes it is primary, highest view first; empty when
  // there is none.
  std::string CurrentPrimaryId() {
    std::string primary;
    uint64_t best_view = 0;
    self().AllNodes([&](const std::string& id, node::Node* n) {
      if (n->IsPrimary() && (primary.empty() || n->view() > best_view)) {
        primary = id;
        best_view = n->view();
      }
      return true;
    });
    return primary;
  }

  apps::LoggingApp logging_app_;

 private:
  D& self() { return static_cast<D&>(*this); }

  // A null `principal` is anonymous.
  ClientT* CachedClient(const TestUser* principal, const std::string& node_id) {
    std::string label = "client-" +
                        (principal != nullptr ? principal->id : "anon") + "@" +
                        node_id;
    auto it = clients_.find(label);
    if (it != clients_.end()) return it->second.get();
    std::unique_ptr<ClientT> client =
        principal != nullptr
            ? self().Dial(label, &principal->key, principal->cert, node_id)
            : self().Dial(label, nullptr, std::nullopt, node_id);
    if (client == nullptr) return nullptr;
    return clients_.emplace(label, std::move(client)).first->second.get();
  }

  Consortium consortium_;
  std::function<void(node::NodeConfig*)> config_tweak_;
  std::string gov_node_ = "n0";
  std::map<std::string, std::unique_ptr<TestUser>> users_;
  std::map<std::string, std::unique_ptr<ClientT>> clients_;
};

// A full service under simulation: nodes, consortium, users, clients.
class ServiceHarness : public ConsortiumHarness<ServiceHarness, node::Client> {
 public:
  static constexpr uint64_t kGovTimeoutMs = 8000;

  explicit ServiceHarness(sim::EnvOptions env_options = {},
                          int num_members = 3)
      : ConsortiumHarness(num_members), env_(env_options) {}
  // Clients unregister from env_, so they go first.
  ~ServiceHarness() { DropClients(); }

  sim::Environment& env() { return env_; }

  // Starts the genesis node (n0) with the logging app.
  node::Node* StartGenesis(bool open_immediately = true,
                           node::Application* app = nullptr) {
    auto n = node::Node::CreateGenesis(ConfigFor("n0", /*joiner=*/false),
                                       GenesisInit(open_immediately),
                                       app != nullptr ? app : &logging_app_,
                                       &env_);
    node::Node* ptr = n.get();
    nodes_["n0"] = std::move(n);
    env_.Step(5);
    return ptr;
  }

  node::Node* Join(const std::string& id, node::Application* app = nullptr) {
    auto n = node::Node::CreateJoiner(
        ConfigFor(id, /*joiner=*/true), nodes_["n0"]->service_identity(), "n0",
        app != nullptr ? app : &logging_app_, &env_);
    node::Node* ptr = n.get();
    nodes_[id] = std::move(n);
    return ptr;
  }

  node::Node* node(const std::string& id) {
    auto it = nodes_.find(id);
    return it != nodes_.end() ? it->second.get() : nullptr;
  }
  std::map<std::string, std::unique_ptr<node::Node>>& nodes() {
    return nodes_;
  }

  node::Node* Primary() { return node(CurrentPrimaryId()); }

  // -------------------------------------------------------- invariants

  // Application-level convergence digest for a node: commit seqno, the
  // Merkle root over the committed prefix, and the committed KV state.
  static Bytes StateDigest(node::Node* n) {
    Bytes out;
    uint64_t commit = n->commit_seqno();
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<uint8_t>(commit >> (8 * i)));
    }
    auto root = n->tree().RootAt(commit);
    if (root.ok()) out.insert(out.end(), root->begin(), root->end());
    auto kv_digest =
        crypto::Sha256::Hash(kv::SerializeState(n->store().committed_state()));
    out.insert(out.end(), kv_digest.begin(), kv_digest.end());
    return out;
  }

  // Tracks a joined node in the invariant checker.
  void TrackNode(const std::string& id) {
    node::Node* n = node(id);
    if (n == nullptr || !n->has_joined()) return;
    checker_.Track(id, &n->raft(), [n] { return StateDigest(n); });
  }
  // Must be called before destroying a node the checker observes.
  void UntrackNode(const std::string& id) { checker_.Untrack(id); }

  // Wires the checker over every joined node and attaches it to the
  // environment (observes after every simulator step). Call TrackNode for
  // nodes that join later.
  sim::InvariantChecker& EnableInvariantChecker() {
    for (auto& [id, n] : nodes_) TrackNode(id);
    checker_.Attach(&env_);
    return checker_;
  }

 private:
  friend class ConsortiumHarness<ServiceHarness, node::Client>;

  bool WaitFor(const std::function<bool()>& pred, uint64_t timeout_ms) {
    return env_.RunUntil(pred, timeout_ms);
  }
  template <class F>
  bool AllNodes(F&& pred) {
    for (auto& entry : nodes_) {
      if (env_.IsUp(entry.first) && !pred(entry.first, entry.second.get())) {
        return false;
      }
    }
    return true;
  }
  bool Joined(const std::string& id) {
    node::Node* n = node(id);
    return n != nullptr && n->has_joined();
  }
  std::unique_ptr<node::Client> Dial(const std::string& label,
                                     const crypto::KeyPair* key,
                                     std::optional<crypto::Certificate> cert,
                                     const std::string& node_id) {
    auto client = std::make_unique<node::Client>(
        label, &env_, nodes_.at("n0")->service_identity(), key,
        std::move(cert));
    client->Connect(node_id);
    return client;
  }

  sim::Environment env_;
  std::map<std::string, std::unique_ptr<node::Node>> nodes_;
  sim::InvariantChecker checker_;
};

}  // namespace ccf::testing

#endif  // CCF_TESTS_SERVICE_HARNESS_H_
