// Per-layer replay: after a traced window, times the public functions each
// layer is made of, on that run's own request/response bytes, the
// primary's final store, and real ledger entries. No timer sits inside
// src/; every figure here is a call from outside, in microseconds.

#include <algorithm>
#include <functional>

#include "crypto/cert.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "crypto/sign.h"
#include "http/http.h"
#include "json/schema.h"
#include "kv/encryptor.h"
#include "merkle/merkle.h"
#include "merkle/receipt.h"
#include "perfbench/bench.h"
#include "rpc/session.h"
#include "tee/boundary.h"

namespace perfbench {
namespace {

constexpr double kRoundSeconds = 0.004;
constexpr int kRounds = 7;

// Median over rounds of the mean µs per call of f(i).
double PerCallUs(const std::function<void(uint64_t)>& f) {
  uint64_t i = 0;
  f(i++);  // warm-up
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    uint64_t n = 0;
    const uint64_t t0 = NowNs();
    uint64_t t1 = t0;
    do {
      f(i++);
      ++n;
      t1 = NowNs();
    } while (static_cast<double>(t1 - t0) < kRoundSeconds * 1e9);
    rounds.push_back(static_cast<double>(t1 - t0) / 1e3 /
                     static_cast<double>(n));
  }
  return Median(rounds);
}

// Like PerCallUs, for calls that need untimed preparation: step(i) returns
// the nanoseconds it spent in the timed part.
double PerCallUsTimed(const std::function<uint64_t(uint64_t)>& step) {
  uint64_t i = 0;
  step(i++);
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    uint64_t n = 0, timed = 0;
    const uint64_t t0 = NowNs();
    do {
      timed += step(i++);
      ++n;
    } while (static_cast<double>(NowNs() - t0) < kRoundSeconds * 1e9);
    rounds.push_back(static_cast<double>(timed) / 1e3 /
                     static_cast<double>(n));
  }
  return Median(rounds);
}

struct Stls {
  crypto::KeyPair service = crypto::KeyPair::FromSeed(ToBytes("perfbench-s"));
  crypto::KeyPair node = crypto::KeyPair::FromSeed(ToBytes("perfbench-n"));
  crypto::KeyPair user = crypto::KeyPair::FromSeed(ToBytes("perfbench-u"));
  crypto::Drbg server_drbg{"perfbench-stls-server", 1};
  crypto::Drbg client_drbg{"perfbench-stls-client", 1};
  rpc::ServerSession server{
      &node,
      crypto::IssueCertificate("n0", "node", node.public_key(), service,
                               "service"),
      &server_drbg};
  rpc::ClientSession client{
      service.public_key(), &user,
      crypto::IssueCertificate("user", "user", user.public_key(), user, ""),
      &client_drbg};

  bool Handshake() {
    auto reply = server.OnRecord(client.Start());
    return reply.ok() && client.OnRecord(reply->to_send).ok() &&
           client.established() && server.established();
  }
};

}  // namespace

std::vector<ledger::Entry> RecentEntries(const node::Node* n) {
  std::vector<ledger::Entry> out;
  const uint64_t last = n->host_ledger().last_seqno();
  const uint64_t first = std::max<uint64_t>(
      n->host_ledger().base_seqno() + 1, last > 2000 ? last - 1999 : 1);
  for (uint64_t s = first; s <= last; ++s) {
    auto e = n->host_ledger().Get(s);
    if (e.ok()) out.push_back(**e);
  }
  return out;
}

ReplayCosts Replay(const ReplayInput& in) {
  ReplayCosts c;
  const size_t nreq = std::max<size_t>(1, in.requests.size());

  // tee: one SGX-sim crossing (host seal + enclave open) at the mean size.
  {
    tee::EnclaveBoundary b(tee::TeeMode::kSgxSim);
    Bytes payload(static_cast<size_t>(in.mean_crossing_bytes), 0x5a);
    c.tee_cross_us = PerCallUs([&](uint64_t) {
      uint32_t type = 0;
      Bytes out;
      b.HostSend(1, payload);
      b.EnclaveReceive(&type, &out);
    });
  }

  // Request path on the server: STLS open + seal, HTTP parse + serialize,
  // JSON parse + schema check + response dump.
  if (!in.requests.empty()) {
    std::vector<http::Request> reqs;
    std::vector<http::Response> resps;
    std::vector<json::Value> resp_bodies;
    for (size_t k = 0; k < in.requests.size(); ++k) {
      http::RequestParser rp;
      rp.Feed(in.requests[k]);
      auto r = rp.Next();
      http::ResponseParser sp;
      sp.Feed(in.responses[k]);
      auto s = sp.Next();
      if (!r.ok() || !r->has_value() || !s.ok() || !s->has_value()) continue;
      reqs.push_back(**r);
      resps.push_back(**s);
      auto body = json::Parse(ToString(resps.back().body));
      resp_bodies.push_back(body.ok() ? *body : json::Value());
    }
    Stls stls;
    if (stls.Handshake()) {
      c.stls_us = PerCallUsTimed([&](uint64_t i) -> uint64_t {
        size_t k = i % nreq;
        auto rec = stls.client.Seal(in.requests[k]);
        if (!rec.ok()) return 0;
        const uint64_t t0 = NowNs();
        auto opened = stls.server.OnRecord(*rec);
        auto sealed = stls.server.Seal(in.responses[k]);
        const uint64_t t1 = NowNs();
        if (sealed.ok()) stls.client.OnRecord(*sealed);
        return opened.ok() ? t1 - t0 : 0;
      });
    }
    if (!reqs.empty()) {
      c.http_us = PerCallUs([&](uint64_t i) {
        size_t k = i % reqs.size();
        http::RequestParser p;
        p.Feed(in.requests[k]);
        auto r = p.Next();
        Bytes wire = resps[k].Serialize();
        (void)r;
      });
      std::vector<std::shared_ptr<const json::Value>> schemas;
      for (const auto& r : reqs) {
        const rpc::EndpointSpec* spec =
            in.app_endpoints != nullptr
                ? in.app_endpoints->Find(r.method, r.PathOnly())
                : nullptr;
        schemas.push_back(spec != nullptr ? spec->request_schema : nullptr);
      }
      c.json_us = PerCallUs([&](uint64_t i) {
        size_t k = i % reqs.size();
        if (!reqs[k].body.empty()) {
          auto v = json::Parse(ToString(reqs[k].body));
          if (v.ok() && schemas[k] != nullptr) {
            (void)json::SchemaValidate(*schemas[k], *v);
          }
        }
        std::string dumped = resp_bodies[k].Dump();
        (void)dumped;
      });
    }
  }

  // kv: reads, commits, private sealing and backup apply, on copies of the
  // primary's final committed state.
  std::vector<kv::WriteSet> write_sets;
  if (in.read_tx) {
    kv::Store st;
    st.InstallState(in.final_state, in.final_seqno);
    c.kv_read_us = PerCallUs([&](uint64_t i) {
      kv::Tx tx = st.BeginTx();
      in.read_tx(&tx, i);
    });
  }
  if (in.write_tx) {
    kv::Store st;
    st.InstallState(in.final_state, in.final_seqno);
    c.kv_commit_us = PerCallUsTimed([&](uint64_t i) -> uint64_t {
      const uint64_t t0 = NowNs();
      kv::Tx tx = st.BeginTx();
      in.write_tx(&tx, i);
      auto r = st.CommitTx(&tx);
      const uint64_t t1 = NowNs();
      if (r.ok() && write_sets.size() < 64) write_sets.push_back(r->write_set);
      if (i % 64 == 0) (void)st.Compact(st.current_seqno());
      return t1 - t0;
    });
  }
  if (!write_sets.empty()) {
    crypto::Drbg d("perfbench-ledger-secret", 1);
    kv::TxEncryptor enc(kv::LedgerSecret::Generate(&d));
    const Bytes aad(32, 0x11);
    c.kv_seal_us = PerCallUs([&](uint64_t i) {
      const kv::WriteSet& ws = write_sets[i % write_sets.size()];
      Bytes sealed = enc.Seal(2, i + 1, ws.SerializePrivate(), aad);
      (void)sealed;
    });
    struct Sealed {
      Bytes pub, priv;
    };
    std::vector<Sealed> sealed;
    for (size_t k = 0; k < write_sets.size(); ++k) {
      sealed.push_back({write_sets[k].SerializePublic(),
                        enc.Seal(2, k + 1, write_sets[k].SerializePrivate(),
                                 aad)});
    }
    kv::Store st;
    st.InstallState(in.final_state, in.final_seqno);
    c.kv_apply_us = PerCallUsTimed([&](uint64_t i) -> uint64_t {
      size_t k = i % sealed.size();
      const uint64_t t0 = NowNs();
      auto plain = enc.Open(2, k + 1, sealed[k].priv, aad);
      if (!plain.ok()) return 0;
      auto ws = kv::WriteSet::Parse(sealed[k].pub, *plain);
      if (ws.ok()) (void)st.ApplyWriteSet(*ws, st.current_seqno() + 1);
      const uint64_t t1 = NowNs();
      if (i % 64 == 0) (void)st.Compact(st.current_seqno());
      return t1 - t0;
    });
  }

  // merkle and ledger appends of real entries, at the run's tree size.
  if (!in.entries.empty()) {
    std::vector<Bytes> leaves;
    for (const auto& e : in.entries) {
      leaves.push_back(merkle::TransactionLeafContent(
          e.view, e.seqno, e.WriteSetDigest(), e.claims_digest));
    }
    merkle::MerkleTree tree;
    tree.AppendLeafHashes(std::vector<merkle::Digest>(in.tree_size));
    c.merkle_append_us = PerCallUs(
        [&](uint64_t i) { tree.Append(leaves[i % leaves.size()]); });

    ledger::Ledger lg;
    size_t next = 0;
    c.ledger_append_us = PerCallUsTimed([&](uint64_t) -> uint64_t {
      if (next == in.entries.size()) {
        lg = ledger::Ledger();
        next = 0;
      }
      if (next == 0) (void)lg.SetBase(in.entries[0].seqno - 1);
      ledger::Entry e = in.entries[next++];
      const uint64_t t0 = NowNs();
      Status s = lg.Append(std::move(e));
      const uint64_t t1 = NowNs();
      return s.ok() ? t1 - t0 : 0;
    });
  }

  // crypto primitives the layers above are built from.
  {
    crypto::Drbg d("perfbench-crypto", 1);
    Bytes key = d.Generate(32);
    Bytes iv = d.Generate(crypto::kGcmIvSize);
    Bytes kb = d.Generate(1024);
    crypto::AesGcm gcm(key);
    c.gcm_us_per_kb = PerCallUs([&](uint64_t) {
      Bytes s = gcm.Seal(iv, kb, {});
      (void)s;
    });
    c.sha256_us_per_kb = PerCallUs([&](uint64_t) {
      auto h = crypto::Sha256::Hash(kb);
      (void)h;
    });
    crypto::KeyPair kp = crypto::KeyPair::FromSeed(ToBytes("perfbench-sign"));
    std::vector<Bytes> msgs;
    std::vector<crypto::SignatureBytes> sigs;
    for (int k = 0; k < 8; ++k) {
      msgs.push_back(d.Generate(32));
      sigs.push_back(kp.Sign(msgs.back()));
    }
    c.sign_us = PerCallUs([&](uint64_t i) {
      auto s = kp.Sign(msgs[i % msgs.size()]);
      (void)s;
    });
    c.verify_us = PerCallUs([&](uint64_t i) {
      size_t k = i % msgs.size();
      (void)crypto::Verify(kp.public_key(), msgs[k], sigs[k]);
    });
    std::vector<crypto::BatchVerifyItem> items;
    for (size_t k = 0; k < msgs.size(); ++k) {
      items.push_back({kp.public_key(), msgs[k], sigs[k]});
    }
    c.verify_batch_us =
        PerCallUs([&](uint64_t) { (void)crypto::VerifyBatch(items, &d); }) /
        static_cast<double>(items.size());
  }
  return c;
}

}  // namespace perfbench
