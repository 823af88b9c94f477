// Figure 8: impact of signature transactions.
//   Left/center: per-request response time with the signature interval set
//   to 100 — most requests are fast, with a latency spike every ~100
//   requests when a signature transaction is produced (Merkle root +
//   Schnorr signature + extra ledger entry). The crypto offload pipeline
//   (tee::WorkerPool) moves the sign off the request path; the sweep below
//   measures the spike with and without offload.
//   Right: write throughput as a function of the signature interval — the
//   tradeoff between time-to-commit and throughput (paper §7).
//   Bottom: ledger audit replay, serial vs the batched kernels
//   (MerkleTree::AppendBatch + crypto::VerifyBatch).
//
// One node, one user, as in the paper ("most other sources of latency
// variance removed"). Response times are wall-clock (the virtual network
// costs nothing here; the measured work is real).
//
// Results are also written to BENCH_signatures.json (current directory, or
// the path given as the first non-flag argument) so scripts/bench_diff.py
// can compare runs. Pass --smoke or set CCF_BENCH_SMOKE=1 for a fast run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "node/audit.h"

namespace ccf::bench {
namespace {

struct OffloadConfig {
  size_t worker_threads = 0;
  bool worker_async = false;
  const char* label = "";
};

constexpr OffloadConfig kOffloadSweep[] = {
    {0, false, "sync (worker_threads=0)"},
    {2, false, "offload blocking (worker_threads=2)"},
    {2, true, "offload async (worker_threads=2, worker_async)"},
};

std::unique_ptr<ServiceHarness> BuildSingleNode(uint64_t sig_interval,
                                                const OffloadConfig& off) {
  auto h = std::make_unique<ServiceHarness>();
  h->SetConfigTweak([sig_interval, off](node::NodeConfig* cfg) {
    cfg->tee_mode = tee::TeeMode::kVirtual;
    cfg->signature_interval_txs = sig_interval;
    cfg->signature_interval_ms = 1u << 30;  // count-triggered only
    cfg->snapshot_interval_txs = 1u << 30;
    cfg->worker_threads = off.worker_threads;
    cfg->worker_async = off.worker_async;
  });
  h->AddUser("user0");
  h->StartGenesis();
  return h;
}

struct LatencyStats {
  size_t samples = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  double mean_normal = 0, mean_spike = 0, ratio = 0;
  uint64_t signs = 0, signs_deferred = 0;
};

LatencyStats LatencyTrace(const OffloadConfig& off, int warmup, int samples,
                          bool print_trace) {
  std::printf("\nFigure 8 (left & center): response time per request, "
              "signature interval = 100, %s\n", off.label);
  auto h = BuildSingleNode(100, off);
  node::Client* client = h->UserClient("user0", "n0");

  LatencyStats out;
  std::vector<double> latencies_us;
  for (int i = 0; i < warmup + samples; ++i) {
    http::Request req = MakeWriteRequest(i);
    auto start = std::chrono::steady_clock::now();
    auto resp = client->Call(std::move(req), 10000);
    auto end = std::chrono::steady_clock::now();
    if (!resp.ok() || resp->status != 200) {
      std::fprintf(stderr, "request %d failed\n", i);
      return out;
    }
    if (i >= warmup) {
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
  }

  // Separate the signature-adjacent requests (every 100th) from the rest.
  std::vector<double> normal, spikes;
  std::vector<double> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  double p90 = sorted[sorted.size() * 90 / 100];
  for (double l : latencies_us) {
    (l > p90 ? spikes : normal).push_back(l);
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / v.size();
  };
  out.samples = latencies_us.size();
  out.p50 = sorted[sorted.size() / 2];
  out.p90 = p90;
  out.p99 = sorted[sorted.size() * 99 / 100];
  out.mean_normal = mean(normal);
  out.mean_spike = mean(spikes);
  out.ratio = out.mean_normal > 0 ? out.mean_spike / out.mean_normal : 0;
  const observe::Registry& m = h->node("n0")->metrics();
  out.signs = m.ScalarValue("crypto.signs");
  out.signs_deferred = m.ScalarValue("crypto.signs_deferred");

  std::printf("  samples: %zu\n", out.samples);
  std::printf("  p50 response time:        %8.1f us\n", out.p50);
  std::printf("  p90 response time:        %8.1f us\n", out.p90);
  std::printf("  p99 response time:        %8.1f us\n", out.p99);
  std::printf("  mean below p90 (normal):  %8.1f us\n", out.mean_normal);
  std::printf("  mean above p90 (spikes):  %8.1f us  (signature overhead)\n",
              out.mean_spike);
  std::printf("  spike/normal ratio:       %8.2fx\n", out.ratio);
  std::printf("  signatures: %llu emitted, %llu via worker pool\n",
              static_cast<unsigned long long>(out.signs),
              static_cast<unsigned long long>(out.signs_deferred));

  if (print_trace) {
    // Compact trace (mirrors the scatter plot): one char per request,
    // '.' <= p90, '#' > p90 — the '#'s land once per signature interval.
    std::printf("  trace: ");
    for (size_t i = 0; i < latencies_us.size(); ++i) {
      std::putchar(latencies_us[i] > p90 ? '#' : '.');
      if ((i + 1) % 100 == 0) std::printf("\n         ");
    }
    std::printf("\n");
  }
  return out;
}

struct ThroughputPoint {
  size_t worker_threads = 0;
  bool worker_async = false;
  uint64_t interval = 0;
  double tx_per_s = 0;
};

std::vector<ThroughputPoint> ThroughputVsInterval(
    const std::vector<uint64_t>& intervals, uint64_t total_requests) {
  std::vector<ThroughputPoint> points;
  std::printf(
      "\nFigure 8 (right): write throughput vs signature interval\n");
  for (const OffloadConfig& off : kOffloadSweep) {
    std::printf("  %s\n", off.label);
    std::printf("  %-12s %16s\n", "interval", "writes (tx/s)");
    for (uint64_t interval : intervals) {
      auto h = BuildSingleNode(interval, off);
      ClosedLoopDriver driver(&h->env());
      for (int c = 0; c < 2; ++c) {
        driver.AddStream(h->UserClient("user0", "n0"),
                         [](uint64_t s) { return MakeWriteRequest(s); }, 32);
      }
      double tput = driver.Run(total_requests).throughput();
      std::printf("  %-12llu %16.0f\n",
                  static_cast<unsigned long long>(interval), tput);
      std::fflush(stdout);
      points.push_back({off.worker_threads, off.worker_async, interval, tput});
    }
  }
  return points;
}

struct AuditStats {
  uint64_t entries = 0;
  double serial_ms = 0, batch_ms = 0, speedup = 0;
  uint64_t batched_verifications = 0;
};

AuditStats AuditReplay(uint64_t writes) {
  std::printf("\nLedger audit replay: serial vs batched kernels\n");
  AuditStats out;
  // Dense signatures so VerifyBatch has material to chew on.
  auto h = BuildSingleNode(10, kOffloadSweep[0]);
  ClosedLoopDriver driver(&h->env());
  driver.AddStream(h->UserClient("user0", "n0"),
                   [](uint64_t s) { return MakeWriteRequest(s); }, 32);
  driver.Run(writes);
  h->env().Step(50);  // let the trailing signature land
  const ledger::Ledger& ledger = h->node("n0")->host_ledger();
  out.entries = ledger.entries().size();

  auto time_audit = [&](node::AuditOptions opt) {
    auto start = std::chrono::steady_clock::now();
    auto report = node::AuditLedger(ledger, std::nullopt, opt);
    auto end = std::chrono::steady_clock::now();
    if (!report.ok()) {
      std::fprintf(stderr, "audit failed: %s\n",
                   report.status().ToString().c_str());
      return std::make_pair(0.0, node::AuditReport{});
    }
    return std::make_pair(
        std::chrono::duration<double, std::milli>(end - start).count(),
        report.take());
  };

  // Best of 3 each, interleaved, to shake off cache noise.
  for (int rep = 0; rep < 3; ++rep) {
    auto [serial_ms, serial_report] = time_audit({.batch = false});
    auto [batch_ms, batch_report] = time_audit({.batch = true});
    if (serial_ms == 0 || batch_ms == 0) return out;
    if (rep == 0 || serial_ms < out.serial_ms) out.serial_ms = serial_ms;
    if (rep == 0 || batch_ms < out.batch_ms) out.batch_ms = batch_ms;
    out.batched_verifications = batch_report.batched_verifications;
    if (batch_report.batched_verifications == 0) {
      std::fprintf(stderr,
                   "ERROR: batched audit did not engage VerifyBatch\n");
      return out;
    }
    if (serial_report.batched_verifications != 0) {
      std::fprintf(stderr, "ERROR: serial audit used VerifyBatch\n");
      return out;
    }
  }
  out.speedup = out.batch_ms > 0 ? out.serial_ms / out.batch_ms : 0;
  std::printf("  entries audited:       %llu\n",
              static_cast<unsigned long long>(out.entries));
  std::printf("  serial replay:         %8.2f ms\n", out.serial_ms);
  std::printf("  batched replay:        %8.2f ms\n", out.batch_ms);
  std::printf("  speedup:               %8.2fx\n", out.speedup);
  std::printf("  batched verifications: %llu\n",
              static_cast<unsigned long long>(out.batched_verifications));
  return out;
}

int RunAll(const std::string& json_path, bool smoke) {
  const int warmup = smoke ? 10 : 50;
  const int samples = smoke ? 150 : 400;
  std::vector<uint64_t> intervals =
      smoke ? std::vector<uint64_t>{1, 10, 100}
            : std::vector<uint64_t>{1, 2, 5, 10, 50, 100, 500};
  const uint64_t tput_requests = smoke ? 300 : 3000;
  const uint64_t audit_writes = smoke ? 300 : 2000;

  json::Object root;
  root["smoke"] = smoke;

  json::Array latency;
  bool deferred_engaged = false;
  double sync_ratio = 0, async_ratio = 0;
  for (const OffloadConfig& off : kOffloadSweep) {
    LatencyStats s = LatencyTrace(off, warmup, samples, !smoke);
    if (s.samples == 0) return 1;
    if (off.worker_threads > 0 && s.signs_deferred > 0) {
      deferred_engaged = true;
    }
    if (off.worker_threads == 0) sync_ratio = s.ratio;
    if (off.worker_async) async_ratio = s.ratio;
    json::Object row;
    row["label"] = off.label;
    row["worker_threads"] = static_cast<uint64_t>(off.worker_threads);
    row["worker_async"] = off.worker_async;
    row["samples"] = static_cast<uint64_t>(s.samples);
    row["p50_us"] = s.p50;
    row["p90_us"] = s.p90;
    row["p99_us"] = s.p99;
    row["mean_normal_us"] = s.mean_normal;
    row["mean_spike_us"] = s.mean_spike;
    row["spike_ratio"] = s.ratio;
    row["signs"] = s.signs;
    row["signs_deferred"] = s.signs_deferred;
    latency.push_back(json::Value(std::move(row)));
  }
  root["latency"] = std::move(latency);
  if (!deferred_engaged) {
    std::fprintf(stderr,
                 "ERROR: worker pool never signed (signs_deferred == 0 in "
                 "every worker_threads>0 config)\n");
    return 1;
  }
  std::printf("\n  spike ratio sync %.2fx -> async offload %.2fx\n",
              sync_ratio, async_ratio);

  json::Array tput;
  for (const ThroughputPoint& p :
       ThroughputVsInterval(intervals, tput_requests)) {
    json::Object row;
    row["worker_threads"] = static_cast<uint64_t>(p.worker_threads);
    row["worker_async"] = p.worker_async;
    row["interval"] = p.interval;
    row["tx_per_s"] = p.tx_per_s;
    tput.push_back(json::Value(std::move(row)));
  }
  root["throughput"] = std::move(tput);

  AuditStats a = AuditReplay(audit_writes);
  if (a.batched_verifications == 0) return 1;
  json::Object audit;
  audit["entries"] = a.entries;
  audit["serial_ms"] = a.serial_ms;
  audit["batch_ms"] = a.batch_ms;
  audit["speedup"] = a.speedup;
  audit["batched_verifications"] = a.batched_verifications;
  root["audit_replay"] = std::move(audit);

  std::string dumped = json::Value(std::move(root)).DumpPretty();
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(dumped.data(), 1, dumped.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ccf::bench

int main(int argc, char** argv) {
  bool smoke = ccf::bench::SmokeMode();
  std::string json_path = "BENCH_signatures.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  return ccf::bench::RunAll(json_path, smoke);
}
