// Live workloads `write` and `read`: a three-node SGX-sim cluster over
// loopback TCP (tests/live_harness.h) with real IO and ticker threads,
// driven from this process by callers that each wait for their reply.
//
//   write  POST /app/log {id, msg} to the primary over a fixed key space,
//          paced at kWriteRate.
//   read   GET /app/log?id= over the preloaded keys, closed loop, one
//          connection per node, each node serving reads locally.
//
// Every set-up starts a fresh cluster and preloads the key space with paced
// writes; `read` reports its commit and memory figures from those preload
// writes, since its window writes nothing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/hex.h"
#include "perfbench/bench.h"
#include "tests/live_harness.h"

namespace perfbench {
namespace {

using testing::LiveServiceHarness;
using testing::ServiceHarness;

constexpr uint64_t kKeys = 1000;
constexpr uint64_t kSettleMs = 300;
// Heap samples for mem_b_per_tx. mallinfo2 holds every malloc arena's lock
// for up to a few milliseconds on a grown heap, stalling the nodes'
// threads, so the live probe samples sparingly.
constexpr uint64_t kHeapSampleUs = 250000;
// Load is paced at a fixed rate over each phase's connections, with at most
// a pipeline's worth of requests waiting for replies per connection.
// Writes (the preload and `write`): a fresh cluster sustains 3-4k tx/s
// closed-loop, then falls into a degraded regime (about 1k tx/s, growing
// commit lag, elections) at a random point of the window; at this rate it
// stays healthy. Reads: saturating the 4-core host made every figure
// follow the neighbours' load (IQR up to 45% of the median); below
// saturation the figures repeat.
constexpr int kWritePipeline = 8;
constexpr int kReadPipeline = 32;
constexpr int kWriteRate = 2000;
constexpr int kReadRate = 30000;
const std::vector<std::string> kNodes = {"n0", "n1", "n2"};

// 20-character message bodies (paper §7).
std::string PreloadMsg(uint64_t seed, uint64_t key) {
  crypto::Drbg d("perfbench-preload", seed * 1000003 + key);
  return HexEncode(d.Generate(10));
}

std::string WriteMsg(int thread, uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%01d%018llu", thread % 10,
                static_cast<unsigned long long>(n));
  return buf;
}

std::string ReadBody(uint64_t key, const std::string& msg) {
  json::Object o;
  o["id"] = static_cast<int64_t>(key);
  o["msg"] = msg;
  return json::Value(std::move(o)).Dump();
}

std::vector<uint64_t> KeyOrder(uint64_t seed) {
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) keys[i] = i;
  crypto::Drbg d("perfbench-keys", seed);
  for (uint64_t i = kKeys - 1; i > 0; --i) {
    std::swap(keys[i], keys[d.Uniform(i + 1)]);
  }
  return keys;
}

// ------------------------------------------------------------- cluster

struct Cluster {
  std::unique_ptr<LiveServiceHarness> h;
  testing::TestUser* user = nullptr;
  crypto::PublicKeyBytes identity{};
  std::map<std::string, std::vector<int>> tids;  // threads each node started

  std::mutex mu;
  std::string primary;

  std::string Primary() {
    std::lock_guard<std::mutex> lk(mu);
    return primary;
  }
  std::string ResolvePrimary() {
    std::string p = h->PrimaryId(2000);
    std::lock_guard<std::mutex> lk(mu);
    if (!p.empty()) primary = p;
    return primary;
  }
  host::LiveNodeHost* Host(const std::string& id) { return h->host(id); }
};

std::vector<int> NewThreads(const std::vector<int>& before) {
  std::vector<int> out;
  for (int t : ThreadIds()) {
    if (!std::binary_search(before.begin(), before.end(), t)) out.push_back(t);
  }
  return out;
}

std::unique_ptr<Cluster> StartCluster(std::string* err) {
  auto c = std::make_unique<Cluster>();
  c->h = std::make_unique<LiveServiceHarness>();
  c->h->SetConfigTweak(PaperConfig);
  c->user = c->h->AddUser("bench");
  auto before = ThreadIds();
  if (c->h->StartGenesis() == nullptr) {
    *err = "genesis node did not start";
    return nullptr;
  }
  c->tids["n0"] = NewThreads(before);
  for (const char* id : {"n1", "n2"}) {
    before = ThreadIds();
    if (c->h->JoinAndTrust(id, 20000) == nullptr) {
      *err = std::string("join of ") + id + " failed";
      return nullptr;
    }
    c->tids[id] = NewThreads(before);
  }
  c->identity = c->Host("n0")->WithNode(
      [](node::Node* n) { return n->service_identity(); });
  c->ResolvePrimary();
  return c;
}

// -------------------------------------------------------------- probe

// Samples the primary's commit seqno every millisecond through WithNode.
class CommitProbe {
 public:
  explicit CommitProbe(Cluster* c) : c_(c) {}
  ~CommitProbe() { Stop(); }
  CommitProbe(const CommitProbe&) = delete;
  CommitProbe& operator=(const CommitProbe&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  uint64_t cpu_ns() const { return cpu_ns_; }

  // First sample time (µs) at which commit reached `seqno`; 0 if never.
  uint64_t CommitTimeUs(uint64_t seqno) const {
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), seqno,
        [](const std::pair<uint64_t, uint64_t>& s, uint64_t v) {
          return s.second < v;
        });
    return it == samples_.end() ? 0 : it->first;
  }
  uint64_t LastCommit() const {
    return samples_.empty() ? 0 : samples_.back().second;
  }
  // (commit seqno, heap bytes in use) sampled within [t0, t1) seconds.
  Samples HeapOverCommit(double t0, double t1) const {
    Samples out;
    for (const auto& h : heap_) {
      if (h.t >= t0 && h.t < t1) out.push_back({h.commit, h.bytes});
    }
    return out;
  }

 private:
  void Loop() {
    uint64_t cpu0 = ThreadCpuNs();
    std::string p = c_->Primary();
    uint64_t last = 0;
    uint64_t next_heap_us = 0;
    auto next = std::chrono::steady_clock::now();
    while (!stop_) {
      host::LiveNodeHost* h = c_->Host(p);
      auto [is_primary, commit] = h->WithNode([](node::Node* n) {
        return std::make_pair(n->IsPrimary(), n->commit_seqno());
      });
      uint64_t t = NowUs();
      if (!is_primary) {
        p = c_->ResolvePrimary();
      } else if (commit > last) {
        samples_.push_back({t, commit});
        last = commit;
      }
      if (t >= next_heap_us) {
        heap_.push_back({t / 1e6, static_cast<double>(last),
                         static_cast<double>(HeapBytesInUse())});
        next_heap_us = t + kHeapSampleUs;
      }
      next += std::chrono::milliseconds(1);
      auto now = std::chrono::steady_clock::now();
      if (next < now) next = now;
      std::this_thread::sleep_until(next);
    }
    cpu_ns_ = ThreadCpuNs() - cpu0;
  }

  Cluster* c_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<uint64_t, uint64_t>> samples_;  // (t_us, commit)
  struct HeapSample {
    double t, commit, bytes;
  };
  std::vector<HeapSample> heap_;
  uint64_t cpu_ns_ = 0;
  std::thread thread_;
};

// --------------------------------------------------------------- load

struct Write {
  uint64_t key;
  std::string msg;
  uint64_t send_us;
  uint64_t view;
  uint64_t seqno;
};

struct ThreadStats {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t in_flight_at_close = 0;
  uint64_t cpu_ns = 0;
  Samples lat_ms;  // (completion time s, latency ms)
  std::vector<Write> acked;
  std::vector<std::pair<uint64_t, std::string>> unknown;  // failed writes
  std::vector<std::pair<Bytes, Bytes>> captured;
  std::map<std::string, uint64_t> served;
  std::string problem;
};

enum class Kind { kPreload, kWrite, kRead };

struct Phase {
  Kind kind;
  uint64_t seed;
  int threads;
  uint64_t deadline_us;  // 0 = run until the generator is exhausted
  bool capture = false;
  std::vector<uint64_t> key_order;
  std::vector<std::string> expected_body;  // read: by key
};

struct Req {
  uint64_t key;
  std::string msg;  // writes
};

void LoadThread(Cluster* c, const Phase& ph, int t, ThreadStats* st) {
  const uint64_t cpu0 = ThreadCpuNs();
  const bool writes = ph.kind != Kind::kRead;
  const int pipeline = writes ? kWritePipeline : kReadPipeline;
  crypto::Drbg pick("perfbench-read", ph.seed * 64 + static_cast<uint64_t>(t));
  uint64_t gen_i = static_cast<uint64_t>(t);
  uint64_t write_n = 0;
  auto next_req = [&]() -> std::optional<Req> {
    if (ph.kind == Kind::kPreload) {
      if (gen_i >= kKeys) return std::nullopt;
      uint64_t key = ph.key_order[gen_i];
      gen_i += static_cast<uint64_t>(ph.threads);
      return Req{key, PreloadMsg(ph.seed, key)};
    }
    if (ph.kind == Kind::kWrite) {
      uint64_t key = ph.key_order[gen_i % kKeys];
      gen_i += static_cast<uint64_t>(ph.threads);
      return Req{key, WriteMsg(t, write_n++)};
    }
    return Req{pick.Uniform(kKeys), ""};
  };

  host::LiveClient client("perfbench-" + std::to_string(t), c->identity,
                          &c->user->key, c->user->cert);
  std::string target = writes ? c->Primary() : kNodes[t % kNodes.size()];
  std::deque<Req> resend;
  std::deque<Req> pending;  // in send order; responses arrive in order
  bool closed = false;
  bool trouble = true;  // connect first
  uint64_t backoff_ms = 0;
  int in_flight = 0;
  bool exhausted = false;
  // Paced: each connection sends one request per period and catches up a
  // backlog only as far as its pipeline allows, so the offered rate holds
  // through client stalls.
  const double period_us =
      1e6 * ph.threads / (writes ? kWriteRate : kReadRate);
  double next_send = static_cast<double>(NowUs());

  auto issue = [&](Req r) {
    http::Request req;
    if (writes) {
      req.method = "POST";
      req.path = "/app/log";
      req.headers["content-type"] = "application/json";
      req.body = ToBytes("{\"id\": " + std::to_string(r.key) +
                         ", \"msg\": \"" + r.msg + "\"}");
    } else {
      req.method = "GET";
      req.path = "/app/log?id=" + std::to_string(r.key);
    }
    Bytes req_bytes;
    if (ph.capture && st->captured.size() < 32) req_bytes = req.Serialize();
    ++st->attempted;
    ++in_flight;
    pending.push_back(r);
    const uint64_t sent = NowUs();
    const std::string node = target;
    client.SendRequest(std::move(req), [&, r, sent, node,
                                        req_bytes = std::move(req_bytes)](
                                           Result<http::Response> resp) {
      if (closed) return;
      --in_flight;
      pending.pop_front();
      bool conflict = resp.ok() && resp->status == 409;
      if (!resp.ok() || resp->status >= 500 || conflict) {
        ++st->failed;
        if (writes) st->unknown.push_back({r.key, r.msg});
        resend.push_back(r);
        trouble = true;
        return;
      }
      const uint64_t now = NowUs();
      ++st->completed;
      ++st->served[node];
      st->lat_ms.push_back({now / 1e6, (now - sent) / 1e3});
      if (!req_bytes.empty()) {
        st->captured.push_back({req_bytes, resp->Serialize()});
      }
      if (resp->status != 200) {
        if (st->problem.empty()) {
          st->problem = "unexpected status " + std::to_string(resp->status) +
                        " on " + (writes ? "write" : "read");
        }
        return;
      }
      if (writes) {
        auto txid = host::LiveClient::TxIdOf(*resp);
        if (!txid.has_value()) {
          if (st->problem.empty()) st->problem = "write without tx id";
          return;
        }
        st->acked.push_back(
            {r.key, r.msg, sent, txid->first, txid->second});
      } else if (ToString(resp->body) != ph.expected_body[r.key]) {
        if (st->problem.empty()) {
          st->problem = "read of key " + std::to_string(r.key) +
                        " returned " + ToString(resp->body);
        }
      }
    });
  };

  for (;;) {
    if (ph.deadline_us != 0 && NowUs() >= ph.deadline_us) break;
    if (trouble) {
      trouble = false;
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
      std::string want = writes ? c->ResolvePrimary() : target;
      if (want != target || !client.connected()) {
        target = want;
        host::LiveNodeHost* h = c->Host(target);
        if (h == nullptr ||
            !client.Connect("127.0.0.1", h->rpc_port(), 2000).ok()) {
          trouble = true;
          backoff_ms = std::min<uint64_t>(backoff_ms * 2 + 10, 200);
          continue;
        }
      }
    }
    while (in_flight < pipeline && client.connected()) {
      const double now = static_cast<double>(NowUs());
      if (now < next_send) break;
      next_send = std::max(next_send + period_us, now - pipeline * period_us);
      if (!resend.empty()) {
        Req r = std::move(resend.front());
        resend.pop_front();
        issue(std::move(r));
      } else if (auto r = next_req()) {
        issue(std::move(*r));
      } else {
        exhausted = true;
        break;
      }
    }
    if (exhausted && in_flight == 0 && resend.empty()) break;
    uint64_t failed_before = st->failed;
    if (!client.PollOnce(1)) trouble = true;
    if (st->failed > failed_before) {
      backoff_ms = std::min<uint64_t>(backoff_ms * 2 + 10, 200);
    } else if (st->completed > 0) {
      backoff_ms = 0;
    }
  }
  st->in_flight_at_close = static_cast<uint64_t>(in_flight);
  if (writes) {
    for (const Req& r : pending) st->unknown.push_back({r.key, r.msg});
  }
  closed = true;
  client.Close();
  st->cpu_ns = ThreadCpuNs() - cpu0;
}

struct PhaseResult {
  std::vector<ThreadStats> threads;
  uint64_t Sum(uint64_t ThreadStats::*f) const {
    uint64_t s = 0;
    for (const auto& t : threads) s += t.*f;
    return s;
  }
};

PhaseResult RunPhase(Cluster* c, const Phase& ph) {
  PhaseResult r;
  r.threads.resize(static_cast<size_t>(ph.threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < ph.threads; ++t) {
    threads.emplace_back([&, t] {
      LoadThread(c, ph, t, &r.threads[static_cast<size_t>(t)]);
    });
  }
  for (auto& th : threads) th.join();
  return r;
}

// ------------------------------------------------------------- checks

// Waits until every node has committed the primary's whole log and the log
// has not grown for kSettleMs: the trailing signature and any snapshot
// evidence have run their course, so a window that follows starts quiet.
bool Settle(Cluster* c) {
  const uint64_t deadline = host::SteadyNowMs() + 20000;
  uint64_t seen = 0, since = host::SteadyNowMs();
  while (host::SteadyNowMs() < deadline) {
    const uint64_t now = host::SteadyNowMs();
    uint64_t last = c->Host(c->ResolvePrimary())->WithNode(
        [](node::Node* n) { return n->last_seqno(); });
    bool all = true;
    for (const auto& id : kNodes) {
      uint64_t commit = c->Host(id)->WithNode(
          [](node::Node* n) { return n->commit_seqno(); });
      if (commit != last) all = false;
    }
    if (last != seen) {
      seen = last;
      since = now;
    } else if (all && now - since >= kSettleMs) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// Settles the cluster and takes every node's state digest.
bool Quiesce(Cluster* c, std::map<std::string, Bytes>* digests) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!Settle(c)) return false;
    const std::string p = c->Primary();
    const uint64_t last = c->Host(p)->WithNode(
        [](node::Node* n) { return n->last_seqno(); });
    digests->clear();
    for (const auto& id : kNodes) {
      (*digests)[id] = c->Host(id)->WithNode(
          [](node::Node* n) { return ServiceHarness::StateDigest(n); });
    }
    if (c->Host(p)->WithNode([](node::Node* n) { return n->last_seqno(); }) ==
        last) {
      return true;
    }
  }
  return false;
}

void CheckState(Cluster* c, const std::vector<const PhaseResult*>& phases,
                Outcome* out) {
  std::map<std::string, Bytes> digests;
  if (!Quiesce(c, &digests)) {
    out->Fail("cluster did not quiesce after the window");
    return;
  }
  for (const auto& id : kNodes) {
    if (digests[id] != digests["n0"]) {
      out->Fail("state digest of " + id + " differs from n0");
    }
  }
  // Expected value per key: the highest-seqno acknowledged write still in
  // the committed ledger, or any write whose outcome the client never
  // learned.
  std::map<uint64_t, std::pair<uint64_t, std::string>> last;
  std::map<uint64_t, std::set<std::string>> unknown;
  std::string p = c->Primary();
  c->Host(p)->WithNode([&](node::Node* n) {
    const uint64_t commit = n->commit_seqno();
    for (const PhaseResult* ph : phases) {
      for (const auto& t : ph->threads) {
        for (const Write& w : t.acked) {
          auto e = n->host_ledger().Get(w.seqno);
          if (w.seqno > commit || !e.ok() || (*e)->view != w.view) continue;
          auto& best = last[w.key];
          if (w.seqno > best.first) best = {w.seqno, w.msg};
        }
        for (const auto& [key, msg] : t.unknown) unknown[key].insert(msg);
      }
    }
  });
  for (const auto& id : kNodes) {
    size_t bad = 0;
    c->Host(id)->WithNode([&](node::Node* n) {
      for (uint64_t k = 0; k < kKeys; ++k) {
        auto v = n->store().GetStr(apps::kPrivateMessagesMap,
                                   std::to_string(k));
        auto it = last.find(k);
        bool ok = it != last.end() && v.has_value() && *v == it->second.second;
        if (!ok && v.has_value() && unknown[k].count(*v) != 0) ok = true;
        if (!ok) ++bad;
      }
    });
    if (bad > 0) {
      out->Fail(std::to_string(bad) + " keys on " + id +
                " do not hold their last committed write");
    }
  }
}

void CheckPhase(const PhaseResult& r, const char* what, Outcome* out) {
  for (const auto& t : r.threads) {
    if (!t.problem.empty()) out->Fail(std::string(what) + ": " + t.problem);
    if (t.attempted != t.completed + t.failed + t.in_flight_at_close) {
      out->Fail(std::string(what) +
                ": attempts != completed + failed + in flight");
    }
  }
}

Samples LatenciesMs(const PhaseResult& r) {
  Samples v;
  for (const auto& t : r.threads) {
    v.insert(v.end(), t.lat_ms.begin(), t.lat_ms.end());
  }
  return v;
}

// (send time s, commit latency ms) of every acknowledged write the probe
// saw commit.
Samples CommitLatenciesMs(const PhaseResult& r, const CommitProbe& probe) {
  Samples v;
  for (const auto& t : r.threads) {
    for (const Write& w : t.acked) {
      uint64_t at = probe.CommitTimeUs(w.seqno);
      if (at == 0 || at < w.send_us) continue;
      v.push_back({w.send_us / 1e6, (at - w.send_us) / 1e3});
    }
  }
  return v;
}

// --------------------------------------------------------------- trace

// Counts what a node's ticker hands to the host, by destination, and
// forwards it to the node's LiveTransport unchanged.
class CountingTransport : public node::HostTransport {
 public:
  explicit CountingTransport(node::HostTransport* inner) : inner_(inner) {}
  void NetSend(const std::string& to, Bytes payload) override {
    if (tid_ == 0) tid_ = CurrentTid();
    ++msgs_;
    bytes_ += payload.size();
    if (to.size() == 2 && to[0] == 'n') {
      ++node_msgs_;
      node_bytes_[to] += payload.size();
    }
    inner_->NetSend(to, std::move(payload));
  }
  void CloseSession(const std::string& peer) override {
    inner_->CloseSession(peer);
  }

  int tid() const { return tid_; }
  uint64_t msgs() const { return msgs_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t node_msgs() const { return node_msgs_; }
  uint64_t node_bytes_to(const std::string& id) const {
    auto it = node_bytes_.find(id);
    return it == node_bytes_.end() ? 0 : it->second;
  }

 private:
  node::HostTransport* inner_;
  // Written only by the node's ticker thread, inside Tick; read under
  // WithNode, which holds the same tick lock.
  int tid_ = 0;
  uint64_t msgs_ = 0;
  uint64_t bytes_ = 0;
  uint64_t node_msgs_ = 0;
  std::map<std::string, uint64_t> node_bytes_;
};

struct NodeSnap {
  RegSnap reg;
  uint64_t tick_cpu_ns = 0;
  uint64_t io_cpu_ns = 0;
  uint64_t parked = 0;
  uint64_t last = 0;
};

NodeSnap SnapNode(Cluster* c, const std::string& id, int ticker_tid) {
  NodeSnap s;
  host::LiveNodeHost* h = c->Host(id);
  h->WithNode([&](node::Node* n) {
    s.reg.v = n->metrics().ToJson();
    s.last = n->last_seqno();
  });
  for (int tid : c->tids[id]) {
    uint64_t ns = ThreadCpuNsOf(tid);
    if (tid == ticker_tid) s.tick_cpu_ns += ns;
    else s.io_cpu_ns += ns;
  }
  s.parked = h->transport().parked_frames_total();
  return s;
}

void TracedWindow(Cluster* c, const Phase& ph, uint64_t window_us,
                  double untraced_tput, Outcome* out, PhaseResult* result) {
  // Install the counting decorators; one short traffic burst (heartbeats)
  // tells us each node's ticker thread before the window opens.
  std::map<std::string, std::unique_ptr<CountingTransport>> dec;
  for (const auto& id : kNodes) {
    host::LiveNodeHost* h = c->Host(id);
    dec[id] = std::make_unique<CountingTransport>(&h->transport());
    CountingTransport* d = dec[id].get();
    h->WithNode([d](node::Node* n) { n->SetHostTransport(d); });
  }
  testing::LiveWaitFor(
      [&] {
        for (const auto& id : kNodes) {
          int tid = c->Host(id)->WithNode(
              [&](node::Node*) { return dec[id]->tid(); });
          if (tid == 0) return false;
        }
        return true;
      },
      2000);
  std::map<std::string, int> ticker;
  for (const auto& id : kNodes) {
    ticker[id] = c->Host(id)->WithNode(
        [&](node::Node*) { return dec[id]->tid(); });
  }
  struct Counts {
    uint64_t msgs, bytes, node_msgs;
    std::map<std::string, uint64_t> to;
  };
  auto counts = [&](const std::string& id) {
    return c->Host(id)->WithNode([&](node::Node*) {
      Counts k{dec[id]->msgs(), dec[id]->bytes(), dec[id]->node_msgs(), {}};
      for (const auto& peer : kNodes) k.to[peer] = dec[id]->node_bytes_to(peer);
      return k;
    });
  };

  std::map<std::string, NodeSnap> s0, s1;
  std::map<std::string, Counts> k0, k1;
  for (const auto& id : kNodes) {
    s0[id] = SnapNode(c, id, ticker[id]);
    k0[id] = counts(id);
  }
  const uint64_t proc0 = ProcessCpuNs();
  const std::string primary = c->Primary();

  // The commit probe runs where it does in the untraced window: on writes.
  CommitProbe probe(c);
  if (ph.kind == Kind::kWrite) probe.Start();
  Phase p = ph;
  p.deadline_us = NowUs() + window_us;
  p.capture = true;
  const double t0 = WallSeconds();
  *result = RunPhase(c, p);
  const double wall = WallSeconds() - t0;
  for (const auto& id : kNodes) {
    s1[id] = SnapNode(c, id, ticker[id]);
    k1[id] = counts(id);
  }
  const uint64_t proc1 = ProcessCpuNs();
  probe.Stop();
  for (const auto& id : kNodes) {
    host::LiveNodeHost* h = c->Host(id);
    h->WithNode([h](node::Node* n) { n->SetHostTransport(&h->transport()); });
  }

  const PhaseResult& r = *result;
  const double done = std::max<double>(1, r.Sum(&ThreadStats::completed));
  const double tput = r.Sum(&ThreadStats::completed) / wall;
  std::vector<std::string> backups;
  for (const auto& id : kNodes) {
    if (id != primary) backups.push_back(id);
  }
  auto d_counter = [&](const std::string& id, const std::string& name) {
    return static_cast<double>(s1[id].reg.Counter(name) -
                               s0[id].reg.Counter(name));
  };
  auto all_counter = [&](const std::string& name) {
    double s = 0;
    for (const auto& id : kNodes) s += d_counter(id, name);
    return s;
  };
  auto backup_mean = [&](const std::function<double(const std::string&)>& f) {
    double s = 0;
    for (const auto& id : backups) s += f(id);
    return backups.empty() ? 0 : s / static_cast<double>(backups.size());
  };
  auto tick_ns = [&](const std::string& id) {
    return static_cast<double>(s1[id].tick_cpu_ns - s0[id].tick_cpu_ns);
  };
  auto io_ns = [&](const std::string& id) {
    return static_cast<double>(s1[id].io_cpu_ns - s0[id].io_cpu_ns);
  };

  double client_ns = static_cast<double>(probe.cpu_ns());
  for (const auto& t : r.threads) client_ns += static_cast<double>(t.cpu_ns);
  double node_ns = 0;
  for (const auto& id : kNodes) node_ns += tick_ns(id) + io_ns(id);
  double parked = 0;
  for (const auto& id : kNodes) {
    parked += static_cast<double>(s1[id].parked - s0[id].parked);
  }

  out->Add("client.cpu_us_per_tx", client_ns / 1e3 / done, "us");
  out->Add("client.retries", static_cast<double>(r.Sum(&ThreadStats::failed)),
           "count");
  const double tick_primary_us = tick_ns(primary) / 1e3 / done;
  out->Add("host.tick_cpu_us_per_tx.primary", tick_primary_us, "us");
  out->Add("host.tick_cpu_us_per_tx.backup",
           backup_mean([&](const std::string& id) {
             return tick_ns(id) / 1e3 / done;
           }),
           "us");
  out->Add("host.tick_busy.primary", tick_ns(primary) / 1e9 / wall,
           "fraction");
  out->Add("host.tick_busy.backup",
           backup_mean([&](const std::string& id) {
             return tick_ns(id) / 1e9 / wall;
           }),
           "fraction");
  out->Add("host.io_cpu_us_per_tx.primary", io_ns(primary) / 1e3 / done,
           "us");
  out->Add("host.io_cpu_us_per_tx.backup",
           backup_mean([&](const std::string& id) {
             return io_ns(id) / 1e3 / done;
           }),
           "us");
  out->Add("host.other_cpu_us_per_tx",
           (static_cast<double>(proc1 - proc0) - node_ns - client_ns) / 1e3 /
               done,
           "us");
  out->Add("host.parked_frames", parked, "count");

  const double h2e_p = d_counter(primary, "tee.h2e.messages") / done;
  const double e2h_p = d_counter(primary, "tee.e2h.messages") / done;
  out->Add("tee.h2e_msgs_per_tx.primary", h2e_p, "count");
  out->Add("tee.h2e_msgs_per_tx.backup",
           backup_mean([&](const std::string& id) {
             return d_counter(id, "tee.h2e.messages") / done;
           }),
           "count");
  out->Add("tee.e2h_msgs_per_tx.primary", e2h_p, "count");
  out->Add("tee.e2h_msgs_per_tx.backup",
           backup_mean([&](const std::string& id) {
             return d_counter(id, "tee.e2h.messages") / done;
           }),
           "count");
  out->Add("tee.ring_full", all_counter("tee.ring_full"), "count");

  double entries = 0, aes = 0;
  for (const auto& id : kNodes) {
    const char* h = "consensus.append_batch_entries";
    entries += static_cast<double>(s1[id].reg.HistSum(h) -
                                   s0[id].reg.HistSum(h));
    aes += static_cast<double>(s1[id].reg.HistCount(h) -
                               s0[id].reg.HistCount(h));
  }
  out->Add("consensus.entries_sent_per_tx", entries / done, "count");
  out->Add("consensus.ae_msgs_per_tx", aes / done, "count");
  out->Add("consensus.commit_ms.p50",
           static_cast<double>(s1[primary].reg.HistField(
               "consensus.commit_latency_ms", "p50")),
           "ms");
  out->Add("consensus.commit_ms.p99",
           static_cast<double>(s1[primary].reg.HistField(
               "consensus.commit_latency_ms", "p99")),
           "ms");
  out->Add("consensus.elections", all_counter("consensus.elections"),
           "count");

  double chan_msgs = 0, crossing_msgs = 0, crossing_bytes = 0;
  double to_backups = 0, primary_chan_bytes = 0;
  for (const auto& id : kNodes) {
    chan_msgs += static_cast<double>(k1[id].node_msgs - k0[id].node_msgs);
    crossing_msgs += static_cast<double>(k1[id].msgs - k0[id].msgs);
    crossing_bytes += static_cast<double>(k1[id].bytes - k0[id].bytes);
    for (const auto& b : backups) {
      to_backups += static_cast<double>(k1[id].to[b] - k0[id].to[b]);
    }
  }
  for (const auto& peer : kNodes) {
    primary_chan_bytes +=
        static_cast<double>(k1[primary].to[peer] - k0[primary].to[peer]);
  }
  out->Add("node.chan_msgs_per_tx", chan_msgs / done, "count");
  out->Add("node.chan_bytes_per_tx.backup",
           to_backups / static_cast<double>(backups.size()) / done, "B");
  // Live ticks run on the ticker thread; its CPU time is their total.
  out->Add("node.tick_us_per_tx.primary", tick_primary_us, "us");
  out->Add("node.tick_us_per_tx.backup",
           backup_mean([&](const std::string& id) {
             return tick_ns(id) / 1e3 / done;
           }),
           "us");

  const double signs = all_counter("crypto.signs");
  out->Add("crypto.signs_per_ktx", signs * 1000 / done, "count");
  out->Add("crypto.verifies_per_ktx",
           (all_counter("crypto.verifies_single") +
            all_counter("crypto.verifies_batched")) *
               1000 / done,
           "count");
  out->Add("snapshot.taken", all_counter("snapshot.taken"), "count");

  const char* bs = "exec.batch_size";
  double batch_n = static_cast<double>(s1[primary].reg.HistCount(bs) -
                                       s0[primary].reg.HistCount(bs));
  double batch_sum = static_cast<double>(s1[primary].reg.HistSum(bs) -
                                         s0[primary].reg.HistSum(bs));
  out->Add("exec.batch_size.mean", batch_n > 0 ? batch_sum / batch_n : 0,
           "count");
  double exec_req = all_counter("exec.requests");
  out->Add("exec.conflict_rate",
           exec_req > 0 ? all_counter("exec.conflicts") / exec_req : 0,
           "fraction");
  out->Add("exec.retries_per_tx", all_counter("exec.retries") / done,
           "count");
  out->Add("exec.aborts", all_counter("exec.aborts"), "count");
  std::string ep = s1[primary].reg.BusiestEndpoint();
  out->Add("rpc.exec_us.p50",
           static_cast<double>(s1[primary].reg.HistField(ep, "p50")), "us");
  out->Add("rpc.exec_us.p99",
           static_cast<double>(s1[primary].reg.HistField(ep, "p99")), "us");
  out->Add("rpc.status_5xx", all_counter("rpc.status.5xx"), "count");

  // Replay on this window's own bytes and the primary's final state.
  ReplayInput in;
  for (const auto& t : r.threads) {
    for (const auto& [rq, rs] : t.captured) {
      in.requests.push_back(rq);
      in.responses.push_back(rs);
    }
  }
  apps::LoggingApp app;
  rpc::EndpointRegistry endpoints;
  app.RegisterEndpoints(&endpoints, node::NodeContext{});
  in.app_endpoints = &endpoints;
  const uint64_t first = s0[primary].last + 1;
  double ledger_bytes = 0;
  c->Host(primary)->WithNode([&](node::Node* n) {
    in.final_state = n->store().committed_state();
    in.final_seqno = n->store().committed_seqno();
    in.tree_size = n->tree().size();
    const uint64_t last = n->last_seqno();
    for (uint64_t s = first; s <= last; ++s) {
      auto e = n->host_ledger().Get(s);
      if (e.ok()) ledger_bytes += static_cast<double>((*e)->Serialize().size());
    }
    in.entries = RecentEntries(n);
  });
  in.mean_crossing_bytes =
      crossing_msgs > 0 ? crossing_bytes / crossing_msgs : 64;
  in.read_tx = [](kv::Tx* tx, uint64_t i) {
    tx->Handle(apps::kPrivateMessagesMap)->GetStr(std::to_string(i % kKeys));
  };
  in.write_tx = [](kv::Tx* tx, uint64_t i) {
    tx->Handle(apps::kPrivateMessagesMap)
        ->PutStr(std::to_string(i % kKeys), WriteMsg(9, i));
  };
  ReplayCosts costs = Replay(in);
  AddReplayMetrics(costs, out);
  out->Add("ledger.bytes_per_tx", ledger_bytes / done, "B");

  PrimaryWork w;
  w.tick_us_per_tx = tick_primary_us;
  w.h2e_per_tx = h2e_p;
  w.e2h_per_tx = e2h_p;
  auto served = [&](const std::string& id) {
    double s = 0;
    for (const auto& t : r.threads) {
      auto it = t.served.find(id);
      if (it != t.served.end()) s += static_cast<double>(it->second);
    }
    return s;
  };
  w.served_share = served(primary) / done;
  const bool writes = ph.kind != Kind::kRead;
  w.writes_per_tx = writes ? 1 : 0;
  w.reads_per_tx = writes ? 0 : w.served_share;
  w.entries_per_tx =
      static_cast<double>(s1[primary].last - s0[primary].last) / done;
  w.chan_kb_per_tx = primary_chan_bytes / 1024 / done;
  w.signs_per_tx = d_counter(primary, "crypto.signs") / done;
  out->Add("node.unattributed_us_per_tx.primary", Unattributed(w, costs),
           "us");
  out->Add("trace_overhead",
           untraced_tput > 0 ? (untraced_tput - tput) / untraced_tput : 0,
           "fraction");
  std::printf("traced window: %.0f tx/s over %.2f s, primary %s\n", tput,
              wall, primary.c_str());
}

// One set-up: a fresh cluster, joins and trust through governance, and a
// closed-loop preload of every key with the commit probe running.
struct Prepared {
  std::unique_ptr<Cluster> c;
  PhaseResult preload;
  double setup_s = 0;
  Samples commit_ms;
  std::vector<double> mem_b_per_tx;
};

bool Prepare(const Options& opt, const std::vector<uint64_t>& order,
             Prepared* p, Outcome* out) {
  p->c.reset();
  const double t0 = WallSeconds();
  std::string err;
  p->c = StartCluster(&err);
  if (p->c == nullptr) {
    out->Fail("set-up: " + err);
    return false;
  }
  Cluster* c = p->c.get();
  Phase pre{Kind::kPreload, opt.seed, ClientBudget() - 1, 0, false, order, {}};
  CommitProbe probe(c);
  probe.Start();
  const uint64_t heap0 = HeapBytesInUse();
  const uint64_t commit0 = c->Host(c->Primary())->WithNode(
      [](node::Node* n) { return n->commit_seqno(); });
  p->preload = RunPhase(c, pre);
  if (!Settle(c)) {
    out->Fail("set-up: preload did not commit everywhere");
    return false;
  }
  const uint64_t heap1 = HeapBytesInUse();
  probe.Stop();
  p->setup_s = WallSeconds() - t0;
  CheckPhase(p->preload, "preload", out);
  out->attempted += p->preload.Sum(&ThreadStats::attempted);
  out->failed += p->preload.Sum(&ThreadStats::failed);
  p->commit_ms = CommitLatenciesMs(p->preload, probe);
  const uint64_t commit1 = probe.LastCommit();
  if (commit1 > commit0) {
    p->mem_b_per_tx.push_back(
        (static_cast<double>(heap1) - static_cast<double>(heap0)) /
        static_cast<double>(commit1 - commit0));
  }
  return true;
}

}  // namespace

Outcome RunLive(const Options& opt) {
  Outcome out;
  const bool writes = opt.workload == "write";
  std::vector<uint64_t> order = KeyOrder(opt.seed);
  std::vector<std::string> expected(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    expected[k] = ReadBody(k, PreloadMsg(opt.seed, k));
  }
  Phase win{writes ? Kind::kWrite : Kind::kRead,
            opt.seed,
            writes ? ClientBudget() - 1 : std::min(ClientBudget(), 3),
            0,
            false,
            order,
            expected};
  const uint64_t window_us = static_cast<uint64_t>(opt.seconds * 1e6);

  // Set-up several times and keep the last cluster; the traced run needs
  // only one, since it reports no set-up time.
  Prepared p;
  std::vector<double> setup_s, preload_mem;
  Samples preload_commit_ms;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    if (!Prepare(opt, order, &p, &out)) return out;
    setup_s.push_back(p.setup_s);
    preload_commit_ms.insert(preload_commit_ms.end(), p.commit_ms.begin(),
                             p.commit_ms.end());
    preload_mem.insert(preload_mem.end(), p.mem_b_per_tx.begin(),
                       p.mem_b_per_tx.end());
  }
  std::string setups;
  for (double v : setup_s) setups += " " + std::to_string(v);
  std::printf("set-up:%s s\n", setups.c_str());

  // Untraced window: load generation, request timing and the commit probe.
  CommitProbe probe(p.c.get());
  if (writes) probe.Start();
  win.deadline_us = NowUs() + window_us;
  const uint64_t t_start = NowUs();
  PhaseResult r = RunPhase(p.c.get(), win);
  const uint64_t t_end = NowUs();
  CheckPhase(r, "window", &out);
  CheckState(p.c.get(), {&p.preload, &r}, &out);
  probe.Stop();
  out.attempted += r.Sum(&ThreadStats::attempted);
  out.failed += r.Sum(&ThreadStats::failed);
  const double completed = static_cast<double>(r.Sum(&ThreadStats::completed));
  const double tput = completed / (static_cast<double>(window_us) / 1e6);
  if (completed == 0) out.Fail("no request completed in the window");

  const double w0 = t_start / 1e6, w1 = t_end / 1e6;
  Samples lat = LatenciesMs(r);
  Samples commit_ms = preload_commit_ms;
  double mem = Median(preload_mem);
  if (writes) {
    commit_ms = CommitLatenciesMs(r, probe);
    mem = Slope(probe.HeapOverCommit(w0, w1));
  }
  std::printf(
      "window: %s, %d connections x %d deep, %.0f completed, %llu failed, "
      "%llu in flight at close; %zu latency and %zu commit samples\n",
      opt.workload.c_str(), win.threads,
      writes ? kWritePipeline : kReadPipeline, completed,
      static_cast<unsigned long long>(r.Sum(&ThreadStats::failed)),
      static_cast<unsigned long long>(r.Sum(&ThreadStats::in_flight_at_close)),
      lat.size(), commit_ms.size());

  std::string per_second;
  SliceMedian(lat, w0, w1, [&](std::vector<double>& v, double len) {
    per_second += " " + std::to_string(static_cast<int>(v.size() / len));
    return 0.0;
  });
  const uint64_t view = p.c->Host(p.c->Primary())->WithNode(
      [](node::Node* n) { return n->view(); });
  std::printf("tx/s by second:%s; view %llu at close\n", per_second.c_str(),
              static_cast<unsigned long long>(view));



  if (opt.trace) {
    // The traced window runs on a fresh cluster, so it starts from the
    // same state as the untraced one and trace_overhead compares like
    // with like.
    if (!Prepare(opt, order, &p, &out)) return out;
    PhaseResult traced;
    TracedWindow(p.c.get(), win, window_us, tput, &out, &traced);
    CheckPhase(traced, "traced window", &out);
    CheckState(p.c.get(), {&p.preload, &traced}, &out);
    out.attempted += traced.Sum(&ThreadStats::attempted);
    out.failed += traced.Sum(&ThreadStats::failed);
  } else {
    // The read workload's commit figures come from its set-up preloads,
    // pooled; everything else is a median over one-second slices.
    auto commit_q = [&](double q) {
      if (writes) return SliceQuantile(commit_ms, w0, w1, q);
      std::vector<double> v;
      for (const auto& [t, ms] : commit_ms) v.push_back(ms);
      return Quantile(v, q);
    };
    out.Add("tput_tx_s", SliceRate(lat, w0, w1), "tx/s");
    out.Add("lat_p50_ms", SliceQuantile(lat, w0, w1, 0.50), "ms");
    out.Add("lat_p99_ms", SliceQuantile(lat, w0, w1, 0.99), "ms");
    out.Add("commit_p50_ms", commit_q(0.50), "ms");
    out.Add("commit_p99_ms", commit_q(0.99), "ms");
    out.Add("mem_b_per_tx", mem, "B");
    out.Add("setup_s", Median(setup_s), "s");
  }
  std::printf("error_rate: %.6f\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0);
  return out;
}

}  // namespace perfbench
