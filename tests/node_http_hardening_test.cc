// HTTP session hardening (ISSUE satellite): keep-alive semantics,
// connection teardown on parse errors, and the per-connection pipelining
// cap. Driven through the simulator, where the enclave behavior is
// identical to live mode (the kCloseSession control message is simply
// ignored by the simulated host).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/json.h"
#include "node/wire.h"
#include "rpc/session.h"
#include "tests/service_harness.h"

namespace ccf::testing {
namespace {

json::Value LogBody(uint64_t id, const std::string& msg) {
  json::Object body;
  body["id"] = id;
  body["msg"] = msg;
  return json::Value(std::move(body));
}

TEST(HttpHardening, ConnectionCloseHeaderHonoured) {
  ServiceHarness h;
  h.AddUser("alice");
  ASSERT_NE(h.StartGenesis(), nullptr);
  node::Client* alice = h.UserClient("alice");

  http::Request req;
  req.method = "POST";
  req.path = "/app/log";
  req.headers["content-type"] = "application/json";
  req.headers["connection"] = "close";
  req.body = ToBytes(LogBody(1, "final word").Dump());
  auto resp = alice->Call(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  // The response announces the close.
  EXPECT_EQ(resp->GetHeader("connection"), "close");

  // The server-side session is gone: further requests on it get no
  // response.
  auto after = alice->Get("/app/log?id=1", 500);
  EXPECT_FALSE(after.ok());

  // A fresh session works (and sees the committed write).
  alice->Connect("n0");
  auto read = alice->Get("/app/log?id=1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200);
  EXPECT_NE(ToString(read->body).find("final word"), std::string::npos);
}

TEST(HttpHardening, PipelineCapRejectsAndCloses) {
  ServiceHarness h;
  h.AddUser("alice");
  h.SetConfigTweak(
      [](node::NodeConfig* cfg) { cfg->http_max_pipeline = 2; });
  ASSERT_NE(h.StartGenesis(), nullptr);
  node::Client* alice = h.UserClient("alice");

  std::vector<http::Response> got;
  constexpr int kBurst = 5;
  for (int i = 0; i < kBurst; ++i) {
    http::Request req;
    req.method = "POST";
    req.path = "/app/log";
    req.headers["content-type"] = "application/json";
    req.body = ToBytes(LogBody(2, "b" + std::to_string(i)).Dump());
    alice->SendRequest(std::move(req), [&](Result<http::Response> resp) {
      if (resp.ok()) got.push_back(std::move(*resp));
    });
  }
  // The first two complete; the third exceeds the cap and is rejected
  // with 503 + connection: close; the rest die with the connection.
  ASSERT_TRUE(h.env().RunUntil([&] { return got.size() >= 3; }, 5000));
  h.env().Step(200);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].status, 200);
  EXPECT_EQ(got[1].status, 200);
  EXPECT_EQ(got[2].status, 503);
  EXPECT_EQ(got[2].GetHeader("connection"), "close");
}

TEST(HttpHardening, ParseErrorGets400AndClose) {
  ServiceHarness h;
  h.AddUser("alice");
  node::Node* n0 = h.StartGenesis();
  ASSERT_NE(n0, nullptr);
  sim::Environment& env = h.env();

  // A hand-rolled session speaking garbage: establish STLS, then send
  // bytes that fail HTTP request parsing.
  crypto::Drbg drbg("evil-client", 0);
  rpc::ClientSession session(n0->service_identity(), nullptr, std::nullopt,
                             &drbg);
  http::ResponseParser parser;
  std::vector<http::Response> responses;
  bool closed_hint = false;
  auto wrap = [](ByteSpan record) {
    return node::WrapWire(node::kSessionRecord, record);
  };
  env.Register(
      "evil",
      [&](const std::string& from, ByteSpan data) {
        if (from != "n0" || data.empty() || data[0] != node::kSessionRecord) {
          return;
        }
        auto out = session.OnRecord(data.subspan(1));
        if (!out.ok()) return;
        for (const Bytes& app : out->app_data) parser.Feed(app);
        while (true) {
          auto r = parser.Next();
          if (!r.ok() || !r->has_value()) break;
          if ((*r)->GetHeader("connection") == "close") closed_hint = true;
          responses.push_back(std::move(**r));
        }
      },
      [](uint64_t) {});
  env.Send("evil", "n0", wrap(session.Start()));
  ASSERT_TRUE(env.RunUntil([&] { return session.established(); }, 2000));

  auto garbage = session.Seal(ToBytes("definitely-not-http\r\n\r\n"));
  ASSERT_TRUE(garbage.ok());
  env.Send("evil", "n0", wrap(*garbage));
  ASSERT_TRUE(env.RunUntil([&] { return !responses.empty(); }, 2000));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 400);
  EXPECT_TRUE(closed_hint);

  // The session is dead: a valid request after the parse error gets
  // nothing back.
  http::Request valid;
  valid.method = "GET";
  valid.path = "/app/log?id=1";
  auto sealed = session.Seal(valid.Serialize());
  ASSERT_TRUE(sealed.ok());
  env.Send("evil", "n0", wrap(*sealed));
  env.Step(500);
  EXPECT_EQ(responses.size(), 1u);
  env.Unregister("evil");
}

}  // namespace
}  // namespace ccf::testing
