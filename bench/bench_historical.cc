// Historical query path (paper §3.4): cost of serving point-in-time reads
// by fetching committed entries back from the untrusted host and
// re-verifying them in the enclave (Merkle leaf + receipt to a signed
// root + private-writeset decryption), versus answering from the bounded
// in-enclave cache.
//
//   cold   -- first range query: host fetch round trip + per-entry
//             verification and store reconstruction
//   warm   -- immediate repeat: served from the LRU cache
//   churn  -- many distinct ranges through a small cache: eviction and
//             refetch behaviour
//
// Results go to BENCH_historical.json (or the path given as the first
// non-flag argument) for scripts/bench_diff.py. --smoke / CCF_BENCH_SMOKE=1
// shrinks the run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace ccf::bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Drives the service until `path` answers something other than 202.
int DriveQuery(ServiceHarness* h, node::Client* client,
               const std::string& path) {
  int status = 0;
  h->env().RunUntil(
      [&] {
        auto resp = client->Get(path, 2000);
        if (!resp.ok()) return false;
        status = resp->status;
        return status != 202;
      },
      10000);
  return status;
}

int RunAll(const std::string& json_path, bool smoke) {
  const uint64_t writes = smoke ? 60 : 600;
  const uint64_t range_span = smoke ? 40 : 120;
  const int churn_queries = smoke ? 12 : 80;

  ServiceHarness h;
  h.SetConfigTweak([](node::NodeConfig* cfg) {
    cfg->snapshot_interval_txs = 1u << 30;  // keep the full host ledger
    cfg->historical.max_range = 128;
    cfg->historical.cache_max_requests = 4;
  });
  h.AddUser("user0");
  node::Node* n0 = h.StartGenesis();
  node::Client* client = h.UserClient("user0");

  std::printf("historical query bench: %llu writes, range span %llu\n",
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(range_span));

  uint64_t last = 0;
  for (uint64_t i = 0; i < writes; ++i) {
    json::Object body;
    body["id"] = static_cast<int64_t>(i % 4);
    body["msg"] = "payload-" + std::to_string(i);
    auto resp = client->PostJson("/app/log", json::Value(std::move(body)));
    if (!resp.ok() || resp->status != 200) {
      std::fprintf(stderr, "setup write %llu failed\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }
    auto txid = node::Client::TxIdOf(*resp);
    if (txid.has_value()) last = txid->second;
  }
  if (!h.env().RunUntil([&] { return n0->ReceiptableUpto() >= last; },
                        20000)) {
    std::fprintf(stderr, "service never became receiptable\n");
    return 1;
  }
  uint64_t upto = n0->ReceiptableUpto();
  uint64_t lo = upto > range_span ? upto - range_span + 1 : 1;
  std::string range_path = "/app/log/historical/range?id=0&from=" +
                           std::to_string(lo) + "&to=" + std::to_string(upto);

  json::Object root;
  root["smoke"] = smoke;

  // Cold: fetch + verify the whole range.
  auto t0 = std::chrono::steady_clock::now();
  int status = DriveQuery(&h, client, range_path);
  double cold_ms = MsSince(t0);
  if (status != 200) {
    std::fprintf(stderr, "cold query failed: HTTP %d\n", status);
    return 1;
  }
  uint64_t range_entries = upto - lo + 1;
  uint64_t verified = n0->metrics().ScalarValue("historical.entries_verified");
  if (verified < range_entries) {
    std::fprintf(stderr, "ERROR: only %llu of %llu entries verified\n",
                 static_cast<unsigned long long>(verified),
                 static_cast<unsigned long long>(range_entries));
    return 1;
  }
  json::Object cold;
  cold["range_entries"] = range_entries;
  cold["wall_ms"] = cold_ms;
  cold["verify_per_s"] =
      cold_ms > 0 ? 1000.0 * static_cast<double>(range_entries) / cold_ms : 0;
  cold["fetch_round_trips"] = n0->historical().stats().fetches;
  root["cold"] = json::Value(std::move(cold));
  std::printf("  cold: %llu entries in %.2f ms (%.0f verified entries/s)\n",
              static_cast<unsigned long long>(range_entries), cold_ms,
              1000.0 * static_cast<double>(range_entries) / cold_ms);

  // Warm: the same range straight from the cache.
  uint64_t fetches_before = n0->historical().stats().fetches;
  t0 = std::chrono::steady_clock::now();
  status = DriveQuery(&h, client, range_path);
  double warm_ms = MsSince(t0);
  if (status != 200 ||
      n0->historical().stats().fetches != fetches_before) {
    std::fprintf(stderr, "warm query missed the cache (HTTP %d)\n", status);
    return 1;
  }
  json::Object warm;
  warm["wall_ms"] = warm_ms;
  warm["speedup_vs_cold"] = warm_ms > 0 ? cold_ms / warm_ms : 0;
  root["warm"] = json::Value(std::move(warm));
  std::printf("  warm: %.2f ms (%.1fx vs cold)\n", warm_ms,
              warm_ms > 0 ? cold_ms / warm_ms : 0);

  // Churn: distinct small ranges through the 4-slot cache.
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < churn_queries; ++i) {
    uint64_t clo = 1 + (static_cast<uint64_t>(i) * 7) % (upto - 5);
    std::string p = "/app/log/historical/range?id=1&from=" +
                    std::to_string(clo) + "&to=" + std::to_string(clo + 4);
    if (DriveQuery(&h, client, p) != 200) {
      std::fprintf(stderr, "churn query %d failed\n", i);
      return 1;
    }
  }
  double churn_ms = MsSince(t0);
  json::Object churn;
  churn["queries"] = static_cast<uint64_t>(churn_queries);
  churn["wall_ms"] = churn_ms;
  churn["evictions"] = n0->historical().stats().evictions;
  churn["fetches"] = n0->historical().stats().fetches;
  root["churn"] = json::Value(std::move(churn));
  std::printf("  churn: %d queries in %.2f ms (%llu evictions, %llu"
              " fetches)\n",
              churn_queries, churn_ms,
              static_cast<unsigned long long>(
                  n0->historical().stats().evictions),
              static_cast<unsigned long long>(
                  n0->historical().stats().fetches));

  std::string dumped = json::Value(std::move(root)).DumpPretty();
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(dumped.data(), 1, dumped.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ccf::bench

int main(int argc, char** argv) {
  bool smoke = ccf::bench::SmokeMode();
  std::string json_path = "BENCH_historical.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  return ccf::bench::RunAll(json_path, smoke);
}
