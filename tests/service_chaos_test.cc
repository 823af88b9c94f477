// Seed-sweep chaos tests over full services (paper §5): three-node
// services with real STLS sessions, governance, signatures, snapshots and
// ledgers, driven through seeded link faults, partitions and crashes while
// sim::InvariantChecker observes every node after every simulated
// millisecond. Convergence is checked down to byte-identical Merkle roots
// and committed KV state. On failure the seed and the full fault schedule
// are printed; reruns with the same seed replay the run bit-for-bit.
//
// Faults apply only to node<->node links: client and join traffic uses
// STLS record streams which (like TCP in the real system) assume in-order
// delivery, while node-to-node consensus messages are individually
// AES-GCM-sealed and tolerate drop/duplication/reordering.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/hex.h"
#include "ledger/ledger.h"
#include "merkle/receipt.h"
#include "node/audit.h"
#include "sim/aggregator.h"
#include "tests/service_chaos_util.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

// ChaosOutcome, RunServiceChaos, HealEverything and Quiesced live in
// tests/service_chaos_util.h, shared with exec_chaos_test.cc.
const std::vector<std::string>& kNodeIds = kChaosNodeIds;

// 20 batches x 10 seeds = 200 fault schedules.
class ServiceChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceChaosTest, InvariantsHoldAcrossSeedBatch) {
  for (uint64_t i = 0; i < 10; ++i) {
    uint64_t seed = GetParam() * 10 + i;
    ChaosOutcome out = RunServiceChaos(seed);
    ASSERT_TRUE(out.failure.empty())
        << "seed " << seed << ": " << out.failure
        << "\nreplayable fault schedule:\n"
        << out.schedule;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedBatches, ServiceChaosTest,
                         ::testing::Range<uint64_t>(0, 20));

TEST(ServiceChaosDeterminism, SameSeedSameTrace) {
  ChaosOutcome a = RunServiceChaos(7);
  ChaosOutcome b = RunServiceChaos(7);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.final_state, b.final_state);
}

// The observability determinism contract (DESIGN.md, observe section):
// metrics are write-only, so a run whose registries are sampled every 20ms
// and serialized into a report is bit-identical -- same fault schedule,
// same per-round trace, same final state -- to one where the metrics are
// recorded but never read.
TEST(ServiceChaosMetrics, ReportDoesNotPerturbDeterminism) {
  ChaosOutcome unread = RunServiceChaos(7);
  ChaosOutcome read = RunServiceChaos(7, /*worker_threads=*/0,
                                      /*with_metrics_report=*/true);
  EXPECT_EQ(unread.schedule, read.schedule);
  EXPECT_EQ(unread.trace, read.trace);
  EXPECT_EQ(unread.failure, read.failure);
  EXPECT_EQ(unread.final_state, read.final_state);
  EXPECT_TRUE(unread.report.empty());
  EXPECT_FALSE(read.report.empty());
}

// The end-of-run report carries the signals the paper's evaluation relies
// on: a submit->commit latency histogram (recorded in virtual time on the
// primary) and tee ring-buffer high-water marks on every node.
TEST(ServiceChaosMetrics, ReportContainsConsensusAndBoundarySignals) {
  ChaosOutcome out = RunServiceChaos(5, /*worker_threads=*/0,
                                     /*with_metrics_report=*/true);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  auto report = json::Parse(out.report);
  ASSERT_TRUE(report.ok());

  const json::Value* env = report->Get("env");
  ASSERT_NE(env, nullptr);
  EXPECT_GT(env->GetInt("messages_sent"), 0);
  EXPECT_GT(env->GetInt("duration_ms"), 0);

  const json::Value* nodes = report->Get("nodes");
  ASSERT_NE(nodes, nullptr);
  int64_t commit_latency_samples = 0;
  for (const std::string& id : kNodeIds) {
    const json::Value* node = nodes->Get(id);
    ASSERT_NE(node, nullptr) << id;
    const json::Value* hist = node->Get("histograms");
    ASSERT_NE(hist, nullptr) << id;
    const json::Value* latency = hist->Get("consensus.commit_latency_ms");
    if (latency != nullptr) {
      commit_latency_samples += latency->GetInt("count");
    }
    // Every node moved bytes across its enclave boundary.
    const json::Value* gauges = node->Get("gauges");
    ASSERT_NE(gauges, nullptr) << id;
    const json::Value* ring = gauges->Get("tee.e2h.ring_used_bytes");
    ASSERT_NE(ring, nullptr) << id;
    EXPECT_GT(ring->GetInt("max"), 0) << id;
  }
  // Whichever node(s) held the primacy recorded submit->commit latencies.
  EXPECT_GT(commit_latency_samples, 0);

  // Watched counters/gauges were sampled into bounded time series.
  const json::Value* watched = report->Get("watched");
  ASSERT_NE(watched, nullptr);
  const json::Value* n0 = watched->Get("n0");
  ASSERT_NE(n0, nullptr);
  const json::Value* series = n0->Get("consensus.commit_seqno");
  ASSERT_NE(series, nullptr);
  EXPECT_GT(series->GetInt("total"), 0);

  // CCF_METRICS_REPORT=<path> dumps the report for inspection with
  // scripts/metrics_report.py (the EXPERIMENTS.md observability example).
  if (const char* path = std::getenv("CCF_METRICS_REPORT")) {
    std::ofstream f(path);
    f << report->DumpPretty() << "\n";
  }
}

// The worker-pool determinism contract (DESIGN.md): with worker_async off,
// worker_threads=N behaves bit-identically to worker_threads=0 -- real
// threads do the signing, but completions land at the same drain point in
// virtual time. Same chaos seed => same fault schedule, same per-round
// trace, same committed KV state and ledger digests on every node.
TEST(ServiceChaosDeterminism, WorkerThreadsPreserveDeterminism) {
  for (uint64_t seed : {3u, 11u}) {
    ChaosOutcome sync = RunServiceChaos(seed, /*worker_threads=*/0);
    ChaosOutcome offload = RunServiceChaos(seed, /*worker_threads=*/4);
    ASSERT_EQ(sync.failure, offload.failure) << "seed " << seed;
    EXPECT_EQ(sync.schedule, offload.schedule) << "seed " << seed;
    EXPECT_EQ(sync.trace, offload.trace) << "seed " << seed;
    EXPECT_EQ(sync.final_state, offload.final_state) << "seed " << seed;
    ASSERT_FALSE(sync.final_state.empty()) << "seed " << seed;

    // And the offloaded run itself replays bit-for-bit despite the real
    // threads (completions are ordered by submission, not finish time).
    ChaosOutcome again = RunServiceChaos(seed, /*worker_threads=*/4);
    EXPECT_EQ(offload.trace, again.trace) << "seed " << seed;
    EXPECT_EQ(offload.final_state, again.final_state) << "seed " << seed;
  }
}

// worker_async=true gives up virtual-time determinism (completions drain
// as they finish) but must never give up correctness: writes commit,
// receipts verify offline, nodes converge and the ledger audits clean.
TEST(ServiceChaosOffload, AsyncModeStaysCorrect) {
  ServiceHarness h;
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->worker_threads = 2;
    cfg->worker_async = true;
  });
  h.AddUser("alice");
  ASSERT_NE(h.StartGenesis(), nullptr);
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);
  sim::InvariantChecker& checker = h.EnableInvariantChecker();

  node::Client* c = h.UserClient("alice");
  std::optional<std::pair<uint64_t, uint64_t>> txid;
  for (int i = 0; i < 20; ++i) {
    json::Object msg;
    msg["id"] = i;
    msg["msg"] = "async-" + std::to_string(i);
    auto w = c->PostJson("/app/log", json::Value(std::move(msg)), 5000);
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(w->status, 200);
    if (i == 10) txid = node::Client::TxIdOf(*w);
  }
  ASSERT_TRUE(txid.has_value());
  ASSERT_TRUE(h.env().RunUntil([&] { return Quiesced(&h); }, 8000));

  // The deferred signing path actually engaged on the primary.
  node::Node* p = h.Primary();
  ASSERT_NE(p, nullptr);
  EXPECT_GT(p->metrics().ScalarValue("crypto.signs_deferred"), 0u);

  // A receipt for a mid-stream write verifies offline.
  Result<http::Response> rr = Status::Unavailable("none");
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        rr = c->Get("/node/receipt?seqno=" + std::to_string(txid->second));
        return rr.ok() && rr->status == 200;
      },
      5000));
  auto body = json::Parse(ToString(rr->body));
  ASSERT_TRUE(body.ok());
  auto receipt_bytes = HexDecode(body->GetString("receipt"));
  ASSERT_TRUE(receipt_bytes.ok());
  auto receipt = merkle::Receipt::Deserialize(*receipt_bytes);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->Verify(p->service_identity()).ok());

  // Nodes converged to identical committed state...
  std::string why;
  EXPECT_TRUE(
      checker.CheckConverged([](const std::string&) { return true; }, &why))
      << why;
  EXPECT_TRUE(checker.ok()) << checker.Report();

  // ...and the whole ledger audits clean against the service identity.
  auto report = node::AuditLedger(p->host_ledger(), p->service_identity());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->signature_transactions, 0u);
}

// The acceptance scenario: a node crashes losing all volatile state, is
// restarted from its on-disk ledger (SaveToDir -> LoadFromDir replay), and
// recovers to a state whose Merkle root matches the surviving nodes'.
TEST(ServiceChaos, CrashRestartLedgerReplayMatchesSurvivors) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);
  h.EnableInvariantChecker();

  node::Client* c = h.UserClient("alice");
  for (int i = 0; i < 12; ++i) {
    json::Object msg;
    msg["id"] = i;
    msg["msg"] = "durable-" + std::to_string(i);
    auto w = c->PostJson("/app/log", json::Value(std::move(msg)));
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(w->status, 200);
  }
  ASSERT_TRUE(h.env().RunUntil([&] { return Quiesced(&h); }, 5000));

  const uint64_t kLast = n0->last_seqno();
  auto survivor_root = h.node("n1")->tree().RootAt(kLast);
  ASSERT_TRUE(survivor_root.ok());

  // n0 (which holds the full ledger from genesis) dies: persist its ledger
  // to "disk", destroy the node object (all volatile state gone), and
  // restart from the files alone. n1+n2 keep quorum and live on.
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("ccf_chaos_replay_" + std::to_string(::getpid())))
                        .string();
  ASSERT_TRUE(n0->SaveLedgerToDir(dir).ok());
  h.UntrackNode("n0");
  h.DropClients();
  h.env().SetUp("n0", false);
  h.nodes().erase("n0");

  auto restored = ledger::LoadFromDir(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->last_seqno(), kLast);
  auto r0 = node::Node::CreateRecovery(FastNodeConfig("r0", 11),
                                       std::move(*restored), nullptr,
                                       &h.env());
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        return r0->IsPrimary() &&
               r0->service_status() == gov::ServiceStatus::kRecovering;
      },
      8000));

  // Ledger replay rebuilt the identical transaction history.
  auto replayed_root = r0->tree().RootAt(kLast);
  ASSERT_TRUE(replayed_root.ok());
  EXPECT_EQ(*replayed_root, *survivor_root);
  auto other_survivor_root = h.node("n2")->tree().RootAt(kLast);
  ASSERT_TRUE(other_survivor_root.ok());
  EXPECT_EQ(*replayed_root, *other_survivor_root);

  std::filesystem::remove_all(dir);
}

// A node that joins after a chaos episode catches up through snapshot
// install plus log replay and converges with the veterans.
TEST(ServiceChaos, JoinerAfterChaosConverges) {
  sim::EnvOptions opts;
  opts.seed = 99;
  ServiceHarness h(opts);
  h.AddUser("alice");
  ASSERT_NE(h.StartGenesis(), nullptr);
  ASSERT_NE(h.JoinAndTrust("n1"), nullptr);
  ASSERT_NE(h.JoinAndTrust("n2"), nullptr);
  sim::InvariantChecker& checker = h.EnableInvariantChecker();

  node::Client* c = h.UserClient("alice");
  for (int i = 0; i < 8; ++i) {
    json::Object msg;
    msg["id"] = i;
    msg["msg"] = "m" + std::to_string(i);
    ASSERT_TRUE(c->PostJson("/app/log", json::Value(std::move(msg))).ok());
  }

  // A brief fault episode among the nodes.
  sim::LinkFaults faults;
  faults.drop = 0.05;
  faults.reorder = 0.05;
  faults.duplicate = 0.03;
  h.env().SetFaultsAmong(kNodeIds, faults);
  h.env().SetPartitioned("n1", "n2", true);
  h.env().Step(400);
  HealEverything(&h);
  h.DropClients();
  ASSERT_TRUE(h.env().RunUntil([&] { return h.Primary() != nullptr; },
                               10000));
  c = h.UserClient("alice");
  json::Object msg;
  msg["id"] = 100;
  msg["msg"] = "post-chaos";
  auto w = c->PostJson("/app/log", json::Value(std::move(msg)), 5000);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w->status, 200);
  ASSERT_TRUE(h.env().RunUntil([&] { return Quiesced(&h); }, 5000));

  // Late joiner: snapshot install + tail replay.
  node::Node* n3 = h.JoinAndTrust("n3", 15000);
  ASSERT_NE(n3, nullptr);
  h.TrackNode("n3");

  json::Object msg2;
  msg2["id"] = 101;
  msg2["msg"] = "with-joiner";
  auto w2 = c->PostJson("/app/log", json::Value(std::move(msg2)), 5000);
  ASSERT_TRUE(w2.ok());
  ASSERT_EQ(w2->status, 200);

  uint64_t target = h.Primary()->last_seqno();
  ASSERT_TRUE(h.WaitForCommitEverywhere(target, 10000));
  ASSERT_TRUE(h.env().RunUntil(
      [&] {
        for (const std::string& id : {"n0", "n1", "n2", "n3"}) {
          node::Node* n = h.node(id);
          if (n->last_seqno() != n3->last_seqno() ||
              n->commit_seqno() != n->last_seqno()) {
            return false;
          }
        }
        return true;
      },
      5000));

  std::string why;
  EXPECT_TRUE(checker.CheckConverged([](const std::string&) { return true; },
                                     &why))
      << why;
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

}  // namespace
}  // namespace ccf::testing
