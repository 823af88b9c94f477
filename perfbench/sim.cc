// Simulated workload `smallbank`: a three-node SGX-sim service in the
// deterministic simulator (one thread, seeded 1-3 ms links), driven
// closed-loop with the SmallBank mix against the primary: 85%
// read-modify-writes over two private maps, 15% balance reads, accounts
// drawn Zipf-skewed. Latencies are in simulated milliseconds; throughput is
// per wall-clock second. Every count repeats exactly for a seed.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>

#include "apps/smallbank.h"
#include "apps/workload.h"
#include "perfbench/bench.h"
#include "tests/service_harness.h"

namespace perfbench {
namespace {

using testing::ServiceHarness;

// Enough accounts that the mix of refusals (emptied accounts) does not
// swing with the seed, few enough that Zipf(0.9) still makes hot accounts.
constexpr int kAccounts = 1000;
constexpr double kSkew = 0.9;
constexpr int kPipeline = 16;
constexpr int64_t kOpening = 10000;
constexpr uint64_t kHeapSampleMs = 20;
const std::vector<std::string> kNodes = {"n0", "n1", "n2"};

enum class Op { kAmalgamate, kWriteCheck, kSendPayment, kTransact, kDeposit,
                kBalance };

struct Draw {
  Op op;
  int64_t a, b, amount;
};

// The standard SmallBank mix (15/20/25/15/10/15).
Draw DrawOp(crypto::Drbg* drbg, const apps::ZipfianSampler& zipf) {
  Draw d{Op::kBalance, static_cast<int64_t>(zipf.Sample(drbg)),
         static_cast<int64_t>(zipf.Sample(drbg)),
         static_cast<int64_t>(drbg->Uniform(20)) + 1};
  uint64_t r = drbg->Uniform(20);
  if (r < 3) d.op = Op::kAmalgamate;
  else if (r < 7) d.op = Op::kWriteCheck;
  else if (r < 12) d.op = Op::kSendPayment;
  else if (r < 15) d.op = Op::kTransact;
  else if (r < 17) d.op = Op::kDeposit;
  if (d.op == Op::kTransact && drbg->Uniform(2) == 1) d.amount = -d.amount;
  return d;
}

http::Request ToRequest(const Draw& d) {
  http::Request req;
  if (d.op == Op::kBalance) {
    req.method = "GET";
    req.path = "/app/sb/balance?account=" + std::to_string(d.a);
    return req;
  }
  json::Object body;
  switch (d.op) {
    case Op::kAmalgamate:
      req.path = "/app/sb/amalgamate";
      body["from"] = d.a;
      body["to"] = d.b;
      break;
    case Op::kWriteCheck:
      req.path = "/app/sb/write_check";
      body["account"] = d.a;
      body["amount"] = d.amount;
      break;
    case Op::kSendPayment:
      req.path = "/app/sb/send_payment";
      body["from"] = d.a;
      body["to"] = d.b;
      body["amount"] = d.amount;
      break;
    case Op::kTransact:
      req.path = "/app/sb/transact_savings";
      body["account"] = d.a;
      body["amount"] = d.amount;
      break;
    default:
      req.path = "/app/sb/deposit_checking";
      body["account"] = d.a;
      body["amount"] = d.amount;
      break;
  }
  req.method = "POST";
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(json::Value(std::move(body)).Dump());
  return req;
}

// Reference bank: applies acknowledged writes in ledger order, mirroring
// the handlers (reads first, then the writes in handler order), and
// returns the figure the response must report.
struct Bank {
  std::vector<int64_t> sav = std::vector<int64_t>(kAccounts, kOpening);
  std::vector<int64_t> chk = std::vector<int64_t>(kAccounts, kOpening);

  // Returns the response field the op reports, or nullopt for a business
  // refusal the service should have answered with 409.
  std::optional<int64_t> Apply(const Draw& d) {
    switch (d.op) {
      case Op::kTransact: {
        int64_t next = sav[d.a] + d.amount;
        if (next < 0) return std::nullopt;
        sav[d.a] = next;
        return next;
      }
      case Op::kDeposit:
        chk[d.a] += d.amount;
        return chk[d.a];
      case Op::kSendPayment: {
        int64_t from = chk[d.a], to = chk[d.b];
        if (from < d.amount) return std::nullopt;
        chk[d.a] = from - d.amount;
        chk[d.b] = to + d.amount;
        return from - d.amount;
      }
      case Op::kWriteCheck: {
        int64_t charge = d.amount;
        if (d.amount > sav[d.a] + chk[d.a]) charge = d.amount + 1;
        chk[d.a] -= charge;
        return chk[d.a];
      }
      case Op::kAmalgamate: {
        int64_t fs = sav[d.a], fc = chk[d.a], tc = chk[d.b];
        sav[d.a] = 0;
        chk[d.a] = 0;
        chk[d.b] = tc + fs + fc;
        return fs + fc;
      }
      default:
        return std::nullopt;
    }
  }
};

const char* ReportedField(Op op) {
  switch (op) {
    case Op::kSendPayment: return "from_balance";
    case Op::kAmalgamate: return "moved";
    default: return "balance";
  }
}

struct Acked {
  uint64_t seqno;
  Draw draw;
  int64_t reported;
};

// Per-node wrapper state for the traced run: times exactly what the node
// registered for itself (Node::Tick and Node::HostReceive).
struct NodeTrace {
  node::Node* n = nullptr;
  bool on = false;
  const observe::Counter* signs = nullptr;
  const observe::Counter* snaps = nullptr;
  uint64_t tick_ns = 0, recv_ns = 0, recv_msgs = 0, recv_bytes = 0;
  uint64_t sig_ticks = 0, sig_ns = 0, snap_ticks = 0, snap_ns = 0;
  std::vector<uint32_t> tick_us;
  uint64_t chan_msgs = 0, chan_bytes = 0;
  std::map<std::string, uint64_t> chan_bytes_from;
};

void Wrap(sim::Environment* env, const std::string& id, NodeTrace* t) {
  env->Register(
      id,
      [t](const std::string& from, ByteSpan data) {
        if (!t->on) {
          t->n->HostReceive(from, data);
          return;
        }
        uint64_t t0 = NowNs();
        t->n->HostReceive(from, data);
        t->recv_ns += NowNs() - t0;
        ++t->recv_msgs;
        t->recv_bytes += data.size();
        if (from.size() == 2 && from[0] == 'n') {
          ++t->chan_msgs;
          t->chan_bytes += data.size();
          t->chan_bytes_from[from] += data.size();
        }
      },
      [t](uint64_t now_ms) {
        if (!t->on) {
          t->n->Tick(now_ms);
          return;
        }
        uint64_t signs = t->signs->value(), snaps = t->snaps->value();
        uint64_t t0 = NowNs();
        t->n->Tick(now_ms);
        uint64_t d = NowNs() - t0;
        t->tick_ns += d;
        t->tick_us.push_back(static_cast<uint32_t>(d / 1000));
        if (t->signs->value() != signs) {
          ++t->sig_ticks;
          t->sig_ns += d;
        }
        if (t->snaps->value() != snaps) {
          ++t->snap_ticks;
          t->snap_ns += d;
        }
      });
}

struct Service {
  apps::SmallBankApp app;
  std::unique_ptr<ServiceHarness> h;
};

std::unique_ptr<Service> BuildService(uint64_t seed, int clients,
                                      std::string* err) {
  auto s = std::make_unique<Service>();
  sim::EnvOptions env;
  env.min_latency_ms = 1;
  env.max_latency_ms = 3;
  env.seed = seed;
  s->h = std::make_unique<ServiceHarness>(env);
  s->h->SetConfigTweak(PaperConfig);
  for (int u = 0; u < clients; ++u) s->h->AddUser("user" + std::to_string(u));
  if (s->h->StartGenesis(true, &s->app) == nullptr ||
      s->h->JoinAndTrust("n1", 20000, &s->app) == nullptr ||
      s->h->JoinAndTrust("n2", 20000, &s->app) == nullptr) {
    *err = "service bring-up failed";
    return nullptr;
  }
  json::Object init;
  init["from"] = 0;
  init["to"] = kAccounts;
  init["savings"] = kOpening;
  init["checking"] = kOpening;
  http::Request req;
  req.method = "POST";
  req.path = "/app/sb/create_accounts";
  req.headers["content-type"] = "application/json";
  req.body = ToBytes(json::Value(std::move(init)).Dump());
  auto created = s->h->UserClient("user0")->Call(std::move(req));
  if (!created.ok() || created->status != 200) {
    *err = "account creation failed";
    return nullptr;
  }
  node::Node* p = s->h->Primary();
  if (p == nullptr || !s->h->WaitForCommitEverywhere(p->last_seqno(), 20000)) {
    *err = "set-up did not commit everywhere";
    return nullptr;
  }
  return s;
}

struct Window {
  uint64_t attempted = 0, completed = 0, failed = 0, in_flight = 0;
  uint64_t writes_completed = 0;
  std::vector<uint64_t> lat_ms;
  std::vector<std::pair<uint64_t, uint64_t>> writes;  // (sent_ms, seqno)
  std::vector<std::pair<Bytes, Bytes>> captured;
  Samples heap;  // (primary commit seqno, heap bytes in use)
  double wall_s = 0;
};

// Closed loop: every client keeps kPipeline requests outstanding for the
// window. Failed attempts (OCC retries exhausted) are re-sent. Responses
// keep feeding the reference bank after the window closes, so requests in
// flight at close are accounted for, and the commit probe runs until the
// service drains.
class SmallBankLoad {
 public:
  SmallBankLoad(Service* s, uint64_t seed, int clients)
      : s_(s), zipf_(kAccounts, kSkew) {
    for (int u = 0; u < clients; ++u) {
      streams_.push_back(
          {s->h->UserClient("user" + std::to_string(u)),
           std::make_unique<crypto::Drbg>("perfbench-smallbank",
                                          seed * 64 + static_cast<uint64_t>(u)),
           {}});
    }
  }

  // Runs for `seconds` of wall time, or for `virtual_ms` of simulated time
  // when that is non-zero (same work for every run of a seed).
  Window Run(double seconds, uint64_t virtual_ms, bool capture) {
    Window w;
    win_ = &w;
    ++window_id_;
    capture_ = capture;
    sim::Environment& env = s_->h->env();
    for (size_t i = 0; i < streams_.size(); ++i) {
      for (int j = 0; j < kPipeline; ++j) Issue(i);
    }
    const double t0 = WallSeconds();
    const uint64_t v0 = env.now_ms();
    while (virtual_ms > 0 ? env.now_ms() - v0 < virtual_ms
                          : WallSeconds() - t0 < seconds) {
      Step();
      if ((env.now_ms() - v0) % kHeapSampleMs == 0) {  // simulated ms
        w.heap.push_back(
            {static_cast<double>(s_->h->Primary()->commit_seqno()),
             static_cast<double>(HeapBytesInUse())});
      }
    }
    w.wall_s = WallSeconds() - t0;
    w.in_flight = in_flight_;
    win_ = nullptr;
    return w;
  }

  // Lets outstanding requests finish after the last window.
  void Drain() {
    for (int i = 0; i < 60000 && in_flight_ > 0; ++i) Step();
    reissue_.clear();
  }

  // Simulated time (ms) at which the primary's commit reached `seqno`.
  uint64_t CommitMsOf(uint64_t seqno) const {
    auto it = std::lower_bound(
        commits_.begin(), commits_.end(), seqno,
        [](const std::pair<uint64_t, uint64_t>& c, uint64_t v) {
          return c.second < v;
        });
    return it == commits_.end() ? 0 : it->first;
  }

  std::vector<Acked>& acked() { return acked_; }
  const std::string& problem() const { return problem_; }

 private:
  struct Stream {
    node::Client* client;
    std::unique_ptr<crypto::Drbg> drbg;
    std::deque<Draw> resend;
  };

  void Step() {
    sim::Environment& env = s_->h->env();
    env.Step(1);
    uint64_t c = s_->h->Primary()->commit_seqno();
    if (c > last_commit_) {
      commits_.push_back({env.now_ms(), c});
      last_commit_ = c;
    }
    std::vector<size_t> todo;
    todo.swap(reissue_);
    for (size_t i : todo) Issue(i);
  }

  void Issue(size_t i) {
    Stream& st = streams_[i];
    Draw d;
    if (!st.resend.empty()) {
      d = st.resend.front();
      st.resend.pop_front();
    } else {
      d = DrawOp(st.drbg.get(), zipf_);
    }
    http::Request req = ToRequest(d);
    Bytes req_bytes;
    if (win_ != nullptr && capture_ && win_->captured.size() < 64) {
      req_bytes = req.Serialize();
    }
    if (win_ != nullptr) ++win_->attempted;
    ++in_flight_;
    const uint64_t sent = s_->h->env().now_ms();
    const uint64_t id = window_id_;
    st.client->SendRequest(std::move(req), [this, i, d, sent, id,
                                            req_bytes = std::move(req_bytes)](
                                               Result<http::Response> resp) {
      --in_flight_;
      // Null once the window the request was sent in has closed.
      Window* cur = win_ != nullptr && id == window_id_ ? win_ : nullptr;
      const bool occ_exhausted =
          resp.ok() && resp->status == 409 &&
          ToString(resp->body).find("transaction conflict") !=
              std::string::npos;
      if (!resp.ok() || resp->status >= 500 || occ_exhausted) {
        if (cur != nullptr) {
          ++cur->failed;
          streams_[i].resend.push_back(d);
          reissue_.push_back(i);
        }
        return;
      }
      Record(d, *resp);
      if (cur == nullptr) return;
      ++cur->completed;
      cur->lat_ms.push_back(s_->h->env().now_ms() - sent);
      if (d.op != Op::kBalance && resp->status == 200) {
        ++cur->writes_completed;
        auto txid = node::Client::TxIdOf(*resp);
        if (txid.has_value()) cur->writes.push_back({sent, txid->second});
      }
      if (!req_bytes.empty()) cur->captured.push_back({req_bytes,
                                                       resp->Serialize()});
      reissue_.push_back(i);
    });
  }

  void Record(const Draw& d, const http::Response& resp) {
    auto note = [&](const std::string& p) {
      if (problem_.empty()) problem_ = p;
    };
    if (resp.status == 409 && d.op != Op::kBalance) return;  // business
    if (resp.status != 200) {
      note("unexpected status " + std::to_string(resp.status));
      return;
    }
    auto body = json::Parse(ToString(resp.body));
    if (!body.ok()) {
      note("unparseable response body");
      return;
    }
    if (d.op == Op::kBalance) {
      if (body->Get("balance") == nullptr) note("balance without a figure");
      return;
    }
    auto txid = node::Client::TxIdOf(resp);
    if (!txid.has_value()) {
      note("write without tx id");
      return;
    }
    acked_.push_back({txid->second, d, body->GetInt(ReportedField(d.op))});
  }

  Service* s_;
  apps::ZipfianSampler zipf_;
  std::vector<Stream> streams_;
  std::vector<size_t> reissue_;
  std::vector<Acked> acked_;
  std::vector<std::pair<uint64_t, uint64_t>> commits_;  // (t_ms, commit)
  uint64_t last_commit_ = 0;
  Window* win_ = nullptr;
  uint64_t window_id_ = 0;
  bool capture_ = false;
  uint64_t in_flight_ = 0;
  std::string problem_;
};

// Replays every acknowledged write in ledger order against the reference
// bank, and compares the reported figures and every node's final balances.
void CheckBank(Service* s, SmallBankLoad* load, Outcome* out) {
  if (!load->problem().empty()) out->Fail("smallbank: " + load->problem());
  auto& acked = load->acked();
  std::sort(acked.begin(), acked.end(),
            [](const Acked& a, const Acked& b) { return a.seqno < b.seqno; });
  Bank bank;
  size_t mismatched = 0;
  for (const Acked& a : acked) {
    auto want = bank.Apply(a.draw);
    if (!want.has_value() || *want != a.reported) ++mismatched;
  }
  if (mismatched > 0) {
    out->Fail(std::to_string(mismatched) +
              " responses disagree with the ledger-order replay");
  }
  for (auto& [id, n] : s->h->nodes()) {
    size_t bad = 0;
    for (int a = 0; a < kAccounts; ++a) {
      auto sv = n->store().GetStr(apps::kSbSavingsMap, std::to_string(a));
      auto cv = n->store().GetStr(apps::kSbCheckingMap, std::to_string(a));
      if (!sv || !cv || std::stoll(*sv) != bank.sav[a] ||
          std::stoll(*cv) != bank.chk[a]) {
        ++bad;
      }
    }
    if (bad > 0) {
      out->Fail(std::to_string(bad) + " accounts on " + id +
                " differ from the reference bank");
    }
  }
}

void CheckDigests(Service* s, Outcome* out) {
  node::Node* p = s->h->Primary();
  bool settled = s->h->env().RunUntil(
      [&] {
        for (auto& [id, n] : s->h->nodes()) {
          if (n->commit_seqno() != p->last_seqno()) return false;
        }
        return true;
      },
      20000);
  if (!settled) {
    out->Fail("service did not settle after the window");
    return;
  }
  Bytes d0 = ServiceHarness::StateDigest(p);
  for (auto& [id, n] : s->h->nodes()) {
    if (ServiceHarness::StateDigest(n.get()) != d0) {
      out->Fail("state digest of " + id + " differs from the primary");
    }
  }
}

void CheckWindow(const Window& w, Outcome* out) {
  if (w.attempted != w.completed + w.failed + w.in_flight) {
    out->Fail("attempts != completed + failed + in flight");
  }
  if (w.completed == 0) out->Fail("no request completed in the window");
}

void TracedMetrics(Service* s, const Window& w, double untraced_tput,
                   const std::map<std::string, NodeTrace>& tr,
                   const std::map<std::string, RegSnap>& r0,
                   const std::map<std::string, RegSnap>& r1,
                   uint64_t msgs0, uint64_t msgs1, uint64_t last0,
                   Outcome* out) {
  const double done = std::max<double>(1, static_cast<double>(w.completed));
  const double tput = static_cast<double>(w.completed) / w.wall_s;
  node::Node* primary_node = s->h->Primary();
  const std::string primary = primary_node->id();
  std::vector<std::string> backups;
  for (const auto& id : kNodes) {
    if (id != primary) backups.push_back(id);
  }
  auto dc = [&](const std::string& id, const std::string& name) {
    return static_cast<double>(r1.at(id).Counter(name) -
                               r0.at(id).Counter(name));
  };
  auto all = [&](const std::string& name) {
    double v = 0;
    for (const auto& id : kNodes) v += dc(id, name);
    return v;
  };
  auto bmean = [&](const std::function<double(const std::string&)>& f) {
    double v = 0;
    for (const auto& id : backups) v += f(id);
    return v / static_cast<double>(backups.size());
  };

  out->Add("client.retries", static_cast<double>(w.failed), "count");
  const double h2e_p = dc(primary, "tee.h2e.messages") / done;
  const double e2h_p = dc(primary, "tee.e2h.messages") / done;
  out->Add("tee.h2e_msgs_per_tx.primary", h2e_p, "count");
  out->Add("tee.h2e_msgs_per_tx.backup", bmean([&](const std::string& id) {
             return dc(id, "tee.h2e.messages") / done;
           }),
           "count");
  out->Add("tee.e2h_msgs_per_tx.primary", e2h_p, "count");
  out->Add("tee.e2h_msgs_per_tx.backup", bmean([&](const std::string& id) {
             return dc(id, "tee.e2h.messages") / done;
           }),
           "count");
  out->Add("tee.ring_full", all("tee.ring_full"), "count");

  double entries = 0, aes = 0;
  for (const auto& id : kNodes) {
    const char* h = "consensus.append_batch_entries";
    entries += static_cast<double>(r1.at(id).HistSum(h) - r0.at(id).HistSum(h));
    aes += static_cast<double>(r1.at(id).HistCount(h) - r0.at(id).HistCount(h));
  }
  out->Add("consensus.entries_sent_per_tx", entries / done, "count");
  out->Add("consensus.ae_msgs_per_tx", aes / done, "count");
  out->Add("consensus.commit_ms.p50",
           static_cast<double>(r1.at(primary).HistField(
               "consensus.commit_latency_ms", "p50")),
           "ms");
  out->Add("consensus.commit_ms.p99",
           static_cast<double>(r1.at(primary).HistField(
               "consensus.commit_latency_ms", "p99")),
           "ms");
  out->Add("consensus.elections", all("consensus.elections"), "count");

  double chan = 0;
  for (const auto& id : kNodes) chan += static_cast<double>(tr.at(id).chan_msgs);
  out->Add("node.chan_msgs_per_tx", chan / done, "count");
  out->Add("node.chan_bytes_per_tx.backup", bmean([&](const std::string& id) {
             return static_cast<double>(tr.at(id).chan_bytes) / done;
           }),
           "B");
  const NodeTrace& pt = tr.at(primary);
  const double tick_p = static_cast<double>(pt.tick_ns) / 1e3 / done;
  out->Add("node.tick_us_per_tx.primary", tick_p, "us");
  out->Add("node.tick_us_per_tx.backup", bmean([&](const std::string& id) {
             return static_cast<double>(tr.at(id).tick_ns) / 1e3 / done;
           }),
           "us");
  out->Add("node.recv_us_per_tx.primary",
           static_cast<double>(pt.recv_ns) / 1e3 / done, "us");
  out->Add("node.recv_us_per_tx.backup", bmean([&](const std::string& id) {
             return static_cast<double>(tr.at(id).recv_ns) / 1e3 / done;
           }),
           "us");
  std::vector<double> ticks(pt.tick_us.begin(), pt.tick_us.end());
  out->Add("node.tick_us.p99.primary", Quantile(ticks, 0.99), "us");
  out->Add("node.tick_us.max.primary",
           ticks.empty() ? 0 : *std::max_element(ticks.begin(), ticks.end()),
           "us");
  out->Add("node.tick_us.sig_mean.primary",
           pt.sig_ticks > 0 ? static_cast<double>(pt.sig_ns) / 1e3 /
                                  static_cast<double>(pt.sig_ticks)
                            : 0,
           "us");
  out->Add("node.tick_us.snapshot_mean.primary",
           pt.snap_ticks > 0 ? static_cast<double>(pt.snap_ns) / 1e3 /
                                   static_cast<double>(pt.snap_ticks)
                             : 0,
           "us");
  out->Add("crypto.signs_per_ktx", all("crypto.signs") * 1000 / done, "count");
  out->Add("crypto.verifies_per_ktx",
           (all("crypto.verifies_single") + all("crypto.verifies_batched")) *
               1000 / done,
           "count");
  out->Add("snapshot.taken", all("snapshot.taken"), "count");

  const char* bs = "exec.batch_size";
  double bn = static_cast<double>(r1.at(primary).HistCount(bs) -
                                  r0.at(primary).HistCount(bs));
  double bsum = static_cast<double>(r1.at(primary).HistSum(bs) -
                                    r0.at(primary).HistSum(bs));
  out->Add("exec.batch_size.mean", bn > 0 ? bsum / bn : 0, "count");
  double ereq = all("exec.requests");
  out->Add("exec.conflict_rate", ereq > 0 ? all("exec.conflicts") / ereq : 0,
           "fraction");
  out->Add("exec.retries_per_tx", all("exec.retries") / done, "count");
  out->Add("exec.aborts", all("exec.aborts"), "count");
  std::string ep = r1.at(primary).BusiestEndpoint();
  out->Add("rpc.exec_us.p50",
           static_cast<double>(r1.at(primary).HistField(ep, "p50")), "us");
  out->Add("rpc.exec_us.p99",
           static_cast<double>(r1.at(primary).HistField(ep, "p99")), "us");
  out->Add("rpc.status_5xx", all("rpc.status.5xx"), "count");

  double nodes_ns = 0;
  for (const auto& id : kNodes) {
    nodes_ns += static_cast<double>(tr.at(id).tick_ns + tr.at(id).recv_ns);
  }
  const double client_env_us = (w.wall_s * 1e9 - nodes_ns) / 1e3 / done;
  out->Add("sim.client_env_us_per_tx", client_env_us, "us");
  out->Add("sim.msgs_per_tx", static_cast<double>(msgs1 - msgs0) / done,
           "count");

  // Replay on this window's own bytes and the primary's final state.
  ReplayInput in;
  for (const auto& [rq, rs] : w.captured) {
    in.requests.push_back(rq);
    in.responses.push_back(rs);
  }
  rpc::EndpointRegistry endpoints;
  s->app.RegisterEndpoints(&endpoints, node::NodeContext{});
  in.app_endpoints = &endpoints;
  in.final_state = primary_node->store().committed_state();
  in.final_seqno = primary_node->store().committed_seqno();
  in.tree_size = primary_node->tree().size();
  double ledger_bytes = 0;
  const uint64_t last = primary_node->last_seqno();
  for (uint64_t q = last0 + 1; q <= last; ++q) {
    auto e = primary_node->host_ledger().Get(q);
    if (e.ok()) ledger_bytes += static_cast<double>((*e)->Serialize().size());
  }
  in.entries = RecentEntries(primary_node);
  double recv_msgs = 0, recv_bytes = 0;
  for (const auto& id : kNodes) {
    recv_msgs += static_cast<double>(tr.at(id).recv_msgs);
    recv_bytes += static_cast<double>(tr.at(id).recv_bytes);
  }
  in.mean_crossing_bytes = recv_msgs > 0 ? recv_bytes / recv_msgs : 64;
  in.read_tx = [](kv::Tx* tx, uint64_t i) {
    std::string a = std::to_string(i % kAccounts);
    tx->Handle(apps::kSbSavingsMap)->GetStr(a);
    tx->Handle(apps::kSbCheckingMap)->GetStr(a);
  };
  in.write_tx = [](kv::Tx* tx, uint64_t i) {
    std::string a = std::to_string(i % kAccounts);
    std::string b = std::to_string((i * 7 + 3) % kAccounts);
    kv::MapHandle* chk = tx->Handle(apps::kSbCheckingMap);
    auto fa = chk->GetStr(a);
    auto fb = chk->GetStr(b);
    chk->PutStr(a, std::to_string(std::stoll(fa.value_or("0")) - 1));
    chk->PutStr(b, std::to_string(std::stoll(fb.value_or("0")) + 1));
  };
  ReplayCosts costs = Replay(in);
  AddReplayMetrics(costs, out);
  out->Add("ledger.bytes_per_tx", ledger_bytes / done, "B");

  PrimaryWork pw;
  pw.tick_us_per_tx = tick_p;
  pw.h2e_per_tx = h2e_p;
  pw.e2h_per_tx = e2h_p;
  pw.served_share = 1;
  pw.writes_per_tx = static_cast<double>(w.writes_completed) / done;
  pw.reads_per_tx = 1 - pw.writes_per_tx;
  pw.entries_per_tx = static_cast<double>(last - last0) / done;
  double primary_chan = 0;
  for (const auto& id : backups) {
    auto it = tr.at(id).chan_bytes_from.find(primary);
    if (it != tr.at(id).chan_bytes_from.end()) {
      primary_chan += static_cast<double>(it->second);
    }
  }
  pw.chan_kb_per_tx = primary_chan / 1024 / done;
  pw.signs_per_tx = dc(primary, "crypto.signs") / done;
  out->Add("node.unattributed_us_per_tx.primary", Unattributed(pw, costs),
           "us");
  out->Add("trace_overhead",
           untraced_tput > 0 ? (untraced_tput - tput) / untraced_tput : 0,
           "fraction");

  double accounted = nodes_ns / 1e3 / done + client_env_us;
  std::printf(
      "traced window: %.0f tx/s; node wrappers + client/env = %.2f us/tx "
      "against 1e6/tput = %.2f us/tx (nodes cover %.1f%% of wall)\n",
      tput, accounted, 1e6 / tput, 100 * nodes_ns / (w.wall_s * 1e9));
}

// Simulated span of a traced window per requested second: the traced
// run does a fixed amount of work for a seed, so its counts repeat exactly.
constexpr uint64_t kVirtualMsPerSecond = 80;

// Drains the load and checks digests and the reference bank.
void Finish(Service* s, SmallBankLoad* load, Outcome* out) {
  load->Drain();
  CheckDigests(s, out);
  CheckBank(s, load, out);
}

}  // namespace

Outcome RunSmallBank(const Options& opt) {
  Outcome out;
  const int clients = ClientBudget();
  std::map<std::string, NodeTrace> tr;  // outlives the service's wrappers
  std::unique_ptr<Service> s;
  std::vector<double> setup_s;
  auto set_up = [&]() {
    s.reset();
    const double t0 = WallSeconds();
    std::string err;
    s = BuildService(opt.seed, clients, &err);
    if (s == nullptr) out.Fail("set-up: " + err);
    setup_s.push_back(WallSeconds() - t0);
    return s != nullptr;
  };
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    if (!set_up()) return out;
  }
  const uint64_t virtual_ms =
      opt.trace ? static_cast<uint64_t>(opt.seconds * kVirtualMsPerSecond) : 0;

  auto load = std::make_unique<SmallBankLoad>(s.get(), opt.seed, clients);
  Window w = load->Run(opt.seconds, virtual_ms, false);
  CheckWindow(w, &out);
  out.attempted += w.attempted;
  out.failed += w.failed;
  const double tput = static_cast<double>(w.completed) / w.wall_s;
  Finish(s.get(), load.get(), &out);

  std::vector<uint64_t> commit_ms;
  for (const auto& [sent, seqno] : w.writes) {
    uint64_t at = load->CommitMsOf(seqno);
    if (at != 0) commit_ms.push_back(at - sent);
  }
  std::printf(
      "window: %d clients x %d deep, %llu completed (%llu writes), %llu "
      "failed, %llu in flight at close; %zu latency and %zu commit "
      "samples\n",
      clients, kPipeline, static_cast<unsigned long long>(w.completed),
      static_cast<unsigned long long>(w.writes_completed),
      static_cast<unsigned long long>(w.failed),
      static_cast<unsigned long long>(w.in_flight), w.lat_ms.size(),
      commit_ms.size());

  if (opt.trace) {
    // Same seed, fresh service, same simulated span: the traced window
    // repeats the untraced one's work exactly.
    load.reset();
    if (!set_up()) return out;
    for (const auto& id : kNodes) {
      NodeTrace& t = tr[id];
      t = NodeTrace{};
      t.n = s->h->node(id);
      t.signs = t.n->metrics().FindCounter("crypto.signs");
      t.snaps = t.n->metrics().FindCounter("snapshot.taken");
      Wrap(&s->h->env(), id, &t);
    }
    load = std::make_unique<SmallBankLoad>(s.get(), opt.seed, clients);
    std::map<std::string, RegSnap> r0, r1;
    for (const auto& id : kNodes) r0[id].v = s->h->node(id)->metrics().ToJson();
    const uint64_t msgs0 = s->h->env().messages_sent();
    const uint64_t last0 = s->h->Primary()->last_seqno();
    for (auto& [id, t] : tr) t.on = true;
    Window tw = load->Run(opt.seconds, virtual_ms, true);
    for (auto& [id, t] : tr) t.on = false;
    const uint64_t msgs1 = s->h->env().messages_sent();
    for (const auto& id : kNodes) r1[id].v = s->h->node(id)->metrics().ToJson();
    CheckWindow(tw, &out);
    out.attempted += tw.attempted;
    out.failed += tw.failed;
    TracedMetrics(s.get(), tw, tput, tr, r0, r1, msgs0, msgs1, last0, &out);
    Finish(s.get(), load.get(), &out);
  } else {
    out.Add("tput_tx_s", tput, "tx/s");
    out.Add("lat_p50_ms", QuantileQuantised(w.lat_ms, 0.50), "ms");
    out.Add("lat_p99_ms", QuantileQuantised(w.lat_ms, 0.99), "ms");
    out.Add("commit_p50_ms", QuantileQuantised(commit_ms, 0.50), "ms");
    out.Add("commit_p99_ms", QuantileQuantised(commit_ms, 0.99), "ms");
    out.Add("mem_b_per_tx", Slope(w.heap), "B");
    out.Add("setup_s", Median(setup_s), "s");
  }
  std::printf("error_rate: %.6f\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0);
  load.reset();
  s.reset();
  return out;
}

}  // namespace perfbench
