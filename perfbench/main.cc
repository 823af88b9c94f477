// perfbench: the repository benchmark program (see README.md).
//
//   perfbench --workload write|read|smallbank --seed N --seconds S --trace 0|1
//
// Prints informational lines, then as its last line one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when a correctness check fails.

#include <malloc.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <set>

#include "perfbench/bench.h"

namespace perfbench {

int ClientBudget() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 2 ? 2 : static_cast<int>(n);
}

void PaperConfig(node::NodeConfig* cfg) {
  node::NodeConfig d;
  d.node_id = cfg->node_id;
  d.seed = cfg->seed;
  d.raft.seed = cfg->raft.seed;
  d.tee_mode = tee::TeeMode::kSgxSim;
  *cfg = std::move(d);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"tput_tx_s", "tx/s"},      {"lat_p50_ms", "ms"},
      {"lat_p99_ms", "ms"},       {"commit_p50_ms", "ms"},
      {"commit_p99_ms", "ms"},    {"mem_b_per_tx", "B"},
      {"setup_s", "s"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"client.cpu_us_per_tx", "us"},
      {"client.retries", "count"},
      {"host.tick_cpu_us_per_tx.primary", "us"},
      {"host.tick_cpu_us_per_tx.backup", "us"},
      {"host.tick_busy.primary", "fraction"},
      {"host.tick_busy.backup", "fraction"},
      {"host.io_cpu_us_per_tx.primary", "us"},
      {"host.io_cpu_us_per_tx.backup", "us"},
      {"host.other_cpu_us_per_tx", "us"},
      {"host.parked_frames", "count"},
      {"tee.h2e_msgs_per_tx.primary", "count"},
      {"tee.h2e_msgs_per_tx.backup", "count"},
      {"tee.e2h_msgs_per_tx.primary", "count"},
      {"tee.e2h_msgs_per_tx.backup", "count"},
      {"tee.ring_full", "count"},
      {"tee.cross_us", "us"},
      {"consensus.entries_sent_per_tx", "count"},
      {"consensus.ae_msgs_per_tx", "count"},
      {"consensus.commit_ms.p50", "ms"},
      {"consensus.commit_ms.p99", "ms"},
      {"consensus.elections", "count"},
      {"node.chan_msgs_per_tx", "count"},
      {"node.chan_bytes_per_tx.backup", "B"},
      {"node.tick_us_per_tx.primary", "us"},
      {"node.tick_us_per_tx.backup", "us"},
      {"node.recv_us_per_tx.primary", "us"},
      {"node.recv_us_per_tx.backup", "us"},
      {"node.tick_us.p99.primary", "us"},
      {"node.tick_us.max.primary", "us"},
      {"node.tick_us.sig_mean.primary", "us"},
      {"node.tick_us.snapshot_mean.primary", "us"},
      {"node.unattributed_us_per_tx.primary", "us"},
      {"crypto.signs_per_ktx", "count"},
      {"crypto.verifies_per_ktx", "count"},
      {"snapshot.taken", "count"},
      {"exec.batch_size.mean", "count"},
      {"exec.conflict_rate", "fraction"},
      {"exec.retries_per_tx", "count"},
      {"exec.aborts", "count"},
      {"rpc.exec_us.p50", "us"},
      {"rpc.exec_us.p99", "us"},
      {"rpc.status_5xx", "count"},
      {"rpc.stls_us_per_req", "us"},
      {"http.us_per_req", "us"},
      {"json.us_per_req", "us"},
      {"kv.read_us", "us"},
      {"kv.commit_us", "us"},
      {"kv.seal_us", "us"},
      {"kv.apply_us", "us"},
      {"merkle.append_us", "us"},
      {"ledger.append_us", "us"},
      {"ledger.bytes_per_tx", "B"},
      {"crypto.gcm_us_per_kb", "us"},
      {"crypto.sha256_us_per_kb", "us"},
      {"crypto.sign_us", "us"},
      {"crypto.verify_us", "us"},
      {"crypto.verify_batch_us", "us"},
      {"sim.client_env_us_per_tx", "us"},
      {"sim.msgs_per_tx", "count"},
      {"trace_overhead", "fraction"},
  };
  return kNames;
}

// ------------------------------------------------------------ numbers

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double QuantileQuantised(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double target = q * static_cast<double>(v.size());
  size_t i = 0;
  while (i < v.size()) {
    size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    if (static_cast<double>(j) >= target) {
      double within = (target - static_cast<double>(i)) /
                      static_cast<double>(j - i);
      return static_cast<double>(v[i]) - 0.5 + within;
    }
    i = j;
  }
  return static_cast<double>(v.back()) + 0.5;
}

double SliceMedian(
    const Samples& samples, double t0, double t1,
    const std::function<double(std::vector<double>&, double)>& f) {
  const int slices = std::max(1, static_cast<int>(t1 - t0));
  const double len = (t1 - t0) / slices;
  std::vector<std::vector<double>> parts(static_cast<size_t>(slices));
  for (const auto& [t, v] : samples) {
    if (t < t0 || t >= t1) continue;
    size_t i = std::min(static_cast<size_t>((t - t0) / len),
                        static_cast<size_t>(slices - 1));
    parts[i].push_back(v);
  }
  std::vector<double> per;
  for (auto& p : parts) per.push_back(f(p, len));
  return Median(per);
}

double SliceRate(const Samples& samples, double t0, double t1) {
  return SliceMedian(samples, t0, t1, [](std::vector<double>& v, double len) {
    return static_cast<double>(v.size()) / len;
  });
}

double SliceQuantile(const Samples& samples, double t0, double t1, double q,
                     bool quantised) {
  return SliceMedian(samples, t0, t1, [&](std::vector<double>& v, double) {
    if (!quantised) return Quantile(v, q);
    return QuantileQuantised(std::vector<uint64_t>(v.begin(), v.end()), q);
  });
}

double Slope(const Samples& xy) {
  if (xy.size() < 2) return 0;
  double mx = 0, my = 0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(xy.size());
  my /= static_cast<double>(xy.size());
  double sxy = 0, sxx = 0;
  for (const auto& [x, y] : xy) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowUs() { return NowNs() / 1000; }

namespace {
uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t ThreadCpuNsOf(int tid) {
  // The Linux per-thread CPU clock of any thread in this process, as
  // glibc's pthread_getcpuclockid builds it: (~tid << 3) | SCHED | THREAD.
  clockid_t id = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  return ClockNs(id);
}

std::vector<int> ThreadIds() {
  std::vector<int> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    out.push_back(std::atoi(e->d_name));
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

uint64_t HeapBytesInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<uint64_t>(mi.uordblks) + static_cast<uint64_t>(mi.hblkhd);
}

// ------------------------------------------------------ registry deltas

namespace {
const json::Value* Section(const json::Value& v, const char* section,
                           const std::string& name) {
  const json::Value* s = v.Get(section);
  if (s == nullptr || !s->is_object()) return nullptr;
  return s->Get(name);
}
}  // namespace

uint64_t RegSnap::Counter(const std::string& name) const {
  const json::Value* c = Section(v, "counters", name);
  return c != nullptr && c->is_number() ? static_cast<uint64_t>(c->AsInt())
                                        : 0;
}

uint64_t RegSnap::HistField(const std::string& name, const char* field) const {
  const json::Value* h = Section(v, "histograms", name);
  if (h == nullptr || !h->is_object()) return 0;
  return static_cast<uint64_t>(h->GetInt(field));
}

uint64_t RegSnap::HistCount(const std::string& name) const {
  return HistField(name, "count");
}
uint64_t RegSnap::HistSum(const std::string& name) const {
  return HistField(name, "sum");
}

std::string RegSnap::BusiestEndpoint() const {
  const json::Value* hs = v.Get("histograms");
  std::string best;
  int64_t best_count = -1;
  if (hs == nullptr || !hs->is_object()) return best;
  for (const auto& [name, h] : hs->AsObject()) {
    if (name.rfind("rpc.latency_us.", 0) != 0) continue;
    if (h.GetInt("count") > best_count) {
      best_count = h.GetInt("count");
      best = name;
    }
  }
  return best;
}

// ------------------------------------------------------------- replay

double Unattributed(const PrimaryWork& w, const ReplayCosts& c) {
  // The primary's ticker opens each inbound crossing (the host side sealed
  // it) and pays both sides of each outbound one; it runs STLS, HTTP and
  // JSON for the requests it serves, the KV work of each transaction, a
  // Merkle leaf and a ledger append per entry, sealing of node-channel
  // bytes, and signatures.
  double explained =
      (0.5 * w.h2e_per_tx + w.e2h_per_tx) * c.tee_cross_us +
      w.served_share * (c.stls_us + c.http_us + c.json_us) +
      w.writes_per_tx * (c.kv_commit_us + c.kv_seal_us) +
      w.reads_per_tx * c.kv_read_us +
      w.entries_per_tx * (c.merkle_append_us + c.ledger_append_us) +
      w.chan_kb_per_tx * c.gcm_us_per_kb + w.signs_per_tx * c.sign_us;
  return w.tick_us_per_tx - explained;
}

void AddReplayMetrics(const ReplayCosts& c, Outcome* out) {
  out->Add("tee.cross_us", c.tee_cross_us, "us");
  out->Add("rpc.stls_us_per_req", c.stls_us, "us");
  out->Add("http.us_per_req", c.http_us, "us");
  out->Add("json.us_per_req", c.json_us, "us");
  out->Add("kv.read_us", c.kv_read_us, "us");
  out->Add("kv.commit_us", c.kv_commit_us, "us");
  out->Add("kv.seal_us", c.kv_seal_us, "us");
  out->Add("kv.apply_us", c.kv_apply_us, "us");
  out->Add("merkle.append_us", c.merkle_append_us, "us");
  out->Add("ledger.append_us", c.ledger_append_us, "us");
  out->Add("crypto.gcm_us_per_kb", c.gcm_us_per_kb, "us");
  out->Add("crypto.sha256_us_per_kb", c.sha256_us_per_kb, "us");
  out->Add("crypto.sign_us", c.sign_us, "us");
  out->Add("crypto.verify_us", c.verify_us, "us");
  out->Add("crypto.verify_batch_us", c.verify_batch_us, "us");
}

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload write|read|smallbank --seed N "
               "--seconds S --trace 0|1\n");
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Emits the result line: exactly the names of the requested metric list,
// in its order; a name the workload did not produce reads 0.
void PrintResult(const Outcome& o, bool trace) {
  const auto& names = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, double> got;
  for (const auto& [name, vu] : o.metrics) got[name] = vu.first;
  std::string line = "{\"correct\": ";
  line += o.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    if (!first) line += ", ";
    first = false;
    auto it = got.find(name);
    line += "\"" + name + "\": {\"value\": " +
            Num(it != got.end() ? it->second : 0) + ", \"unit\": \"" + unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    seen.insert(k);
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || seen.count("--workload") == 0 || opt.seconds <= 0) {
    Usage();
    return 2;
  }
  // src/host writes sockets with plain write(); a peer that closed its end
  // must not kill the benchmark with SIGPIPE.
  signal(SIGPIPE, SIG_IGN);

  Outcome out;
  if (opt.workload == "write" || opt.workload == "read") {
    out = RunLive(opt);
  } else if (opt.workload == "smallbank") {
    out = RunSmallBank(opt);
  } else {
    Usage();
    return 2;
  }
  for (const auto& [name, vu] : out.metrics) {
    std::printf("  %-40s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  PrintResult(out, opt.trace);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
