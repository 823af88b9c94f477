// Telemetry endpoint tests ("observe" label): GET /node/metrics JSON and
// Prometheus exposition after a scripted workload, monotonicity across
// further load, and agreement between the legacy alias endpoints
// (/node/crypto_ops, /node/historical) and the unified registry.

#include <gtest/gtest.h>

#include <string>

#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

bool AllQuiesced(ServiceHarness* h) {
  uint64_t last = 0;
  bool first = true;
  for (const std::string& id : {"n0", "n1", "n2"}) {
    node::Node* n = h->node(id);
    if (n == nullptr || !n->has_joined()) return false;
    if (first) {
      last = n->last_seqno();
      first = false;
    }
    if (n->last_seqno() != last || n->commit_seqno() != last) return false;
  }
  return last > 0;
}

class NodeMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    h_.AddUser("alice");
    ASSERT_NE(h_.StartGenesis(), nullptr);
    ASSERT_NE(h_.JoinAndTrust("n1"), nullptr);
    ASSERT_NE(h_.JoinAndTrust("n2"), nullptr);
  }

  // Writes `n` log entries and one read, then waits for quiescence.
  void Workload(int n, int base = 0) {
    node::Client* c = h_.UserClient("alice");
    for (int i = 0; i < n; ++i) {
      json::Object msg;
      msg["id"] = base + i;
      msg["msg"] = "entry-" + std::to_string(base + i);
      auto w = c->PostJson("/app/log", json::Value(std::move(msg)), 3000);
      ASSERT_TRUE(w.ok());
      ASSERT_EQ(w->status, 200);
    }
    auto r = c->Get("/app/log?id=" + std::to_string(base), 3000);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(h_.env().RunUntil([&] { return AllQuiesced(&h_); }, 5000));
  }

  json::Value FetchMetrics() {
    auto resp = h_.AnonymousClient()->Get("/node/metrics", 3000);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    auto parsed = json::Parse(ToString(resp->body));
    EXPECT_TRUE(parsed.ok());
    return *parsed;
  }

  ServiceHarness h_;
};

TEST_F(NodeMetricsTest, JsonShapeAndPerEndpointLatencies) {
  Workload(6);
  json::Value body = FetchMetrics();
  EXPECT_EQ(body.GetString("node_id"), "n0");
  const json::Value* m = body.Get("metrics");
  ASSERT_NE(m, nullptr);

  const json::Value* counters = m->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetInt("rpc.requests.POST /app/log"), 6);
  EXPECT_GE(counters->GetInt("rpc.status.2xx"), 6);
  EXPECT_GT(counters->GetInt("crypto.signs"), 0);

  const json::Value* gauges = m->Get("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* commit = gauges->Get("consensus.commit_seqno");
  ASSERT_NE(commit, nullptr);
  EXPECT_GT(commit->GetInt("value"), 0);
  const json::Value* ring = gauges->Get("tee.e2h.ring_used_bytes");
  ASSERT_NE(ring, nullptr);
  EXPECT_GT(ring->GetInt("max"), 0);
  const json::Value* ledger = gauges->Get("ledger.entries");
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(ledger->GetInt("value"), 0);

  const json::Value* hists = m->Get("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* lat = hists->Get("rpc.latency_us.POST /app/log");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->GetInt("count"), 6);
  EXPECT_LE(lat->GetInt("p50"), lat->GetInt("p99"));
  EXPECT_LE(lat->GetInt("p99"), lat->GetInt("max"));
  const json::Value* commit_lat = hists->Get("consensus.commit_latency_ms");
  ASSERT_NE(commit_lat, nullptr);
  EXPECT_GT(commit_lat->GetInt("count"), 0);
}

// The batched-execution path (DESIGN.md §12) exports its shape through
// the same endpoint: request/batch counters, the batch-size histogram,
// and zero conflicts for an uncontended workload.
TEST_F(NodeMetricsTest, ExecCountersAndBatchHistogram) {
  Workload(6);
  json::Value body = FetchMetrics();
  const json::Value* m = body.Get("metrics");
  ASSERT_NE(m, nullptr);

  const json::Value* counters = m->Get("counters");
  ASSERT_NE(counters, nullptr);
  int64_t requests = counters->GetInt("exec.requests");
  int64_t batches = counters->GetInt("exec.batches");
  // Every eligible request (all of /app/log's traffic) went through the
  // batch path.
  EXPECT_GE(requests, 7);  // 6 writes + 1 read
  EXPECT_GE(batches, 1);
  EXPECT_LE(batches, requests);
  // Sequential blocking clients produce no contention.
  EXPECT_EQ(counters->GetInt("exec.conflicts"), 0);
  EXPECT_EQ(counters->GetInt("exec.retries"), 0);
  EXPECT_EQ(counters->GetInt("exec.aborts"), 0);

  const json::Value* hists = m->Get("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* bs = hists->Get("exec.batch_size");
  ASSERT_NE(bs, nullptr);
  EXPECT_EQ(bs->GetInt("count"), batches);
  EXPECT_GE(bs->GetInt("max"), 1);
}

TEST_F(NodeMetricsTest, CountersAreMonotonicAcrossWorkload) {
  Workload(4);
  json::Value before = FetchMetrics();
  const json::Value* c0 = before.Get("metrics")->Get("counters");
  ASSERT_NE(c0, nullptr);
  int64_t writes0 = c0->GetInt("rpc.requests.POST /app/log");
  int64_t signs0 = c0->GetInt("crypto.signs");
  int64_t ok0 = c0->GetInt("rpc.status.2xx");

  Workload(5, 100);
  json::Value after = FetchMetrics();
  const json::Value* c1 = after.Get("metrics")->Get("counters");
  ASSERT_NE(c1, nullptr);
  EXPECT_GE(c1->GetInt("rpc.requests.POST /app/log"), writes0 + 5);
  EXPECT_GE(c1->GetInt("crypto.signs"), signs0);
  EXPECT_GT(c1->GetInt("rpc.status.2xx"), ok0);
}

TEST_F(NodeMetricsTest, PrometheusExposition) {
  Workload(3);
  auto resp =
      h_.AnonymousClient()->Get("/node/metrics?format=prometheus", 3000);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  auto ct = resp->headers.find("content-type");
  ASSERT_NE(ct, resp->headers.end());
  EXPECT_NE(ct->second.find("text/plain"), std::string::npos);
  std::string body = ToString(resp->body);
  EXPECT_NE(body.find("# TYPE ccf_consensus_commit_seqno gauge"),
            std::string::npos);
  EXPECT_NE(body.find("ccf_rpc_requests_POST__app_log"), std::string::npos);
  EXPECT_NE(body.find("ccf_rpc_latency_us_POST__app_log{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(body.find("ccf_crypto_signs"), std::string::npos);
}

TEST_F(NodeMetricsTest, AliasEndpointsMatchRegistry) {
  Workload(5);
  node::Node* n0 = h_.node("n0");
  node::Client* c = h_.AnonymousClient();

  auto ops_resp = c->Get("/node/crypto_ops", 3000);
  ASSERT_TRUE(ops_resp.ok());
  ASSERT_EQ(ops_resp->status, 200);
  auto ops = json::Parse(ToString(ops_resp->body));
  ASSERT_TRUE(ops.ok());
  EXPECT_EQ(static_cast<uint64_t>(ops->GetInt("signs")),
            n0->metrics().ScalarValue("crypto.signs"));
  EXPECT_EQ(static_cast<uint64_t>(ops->GetInt("verifies_single")),
            n0->metrics().ScalarValue("crypto.verifies_single"));
  EXPECT_EQ(static_cast<uint64_t>(ops->GetInt("verify_failures")),
            n0->metrics().ScalarValue("crypto.verify_failures"));

  auto hist_resp = c->Get("/node/historical", 3000);
  ASSERT_TRUE(hist_resp.ok());
  ASSERT_EQ(hist_resp->status, 200);
  auto hist = json::Parse(ToString(hist_resp->body));
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(static_cast<uint64_t>(hist->GetInt("host_fetch_requests")),
            n0->metrics().ScalarValue("historical.host_fetch_requests"));
  EXPECT_EQ(static_cast<uint64_t>(hist->GetInt("entries_verified")),
            n0->metrics().ScalarValue("historical.entries_verified"));
  EXPECT_EQ(static_cast<uint64_t>(hist->GetInt("entries_rejected")),
            n0->metrics().ScalarValue("historical.entries_rejected"));
}

}  // namespace
}  // namespace ccf::testing
