// Shared pieces of the repository benchmark: run options, the fixed node
// configuration, result collection, percentile and CPU/heap readers, and
// the per-layer replay interface. See README.md in this directory.

#ifndef CCF_PERFBENCH_BENCH_H_
#define CCF_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"
#include "kv/store.h"
#include "ledger/ledger.h"
#include "node/node.h"
#include "rpc/endpoints.h"

namespace perfbench {

using namespace ccf;  // NOLINT: the benchmark speaks the repo's vocabulary

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Client threads and connections the benchmark may use in total, commit
// probe included: one per core.
int ClientBudget();

// Paper §7 deployment: three SGX-sim nodes, every other NodeConfig field
// at its default. Applied on top of the harnesses' FastNodeConfig, keeping
// each node's id and seeds, so a change to a default is measured.
void PaperConfig(node::NodeConfig* cfg);

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

// ------------------------------------------------------------ results

struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

// The end-to-end and per-layer metric names, in output order (README.md
// defines each). Every workload reports all of them; a layer a workload
// does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// ------------------------------------------------------------ numbers

double Median(std::vector<double> v);
// Percentile of raw samples by nearest rank (q in [0, 1]).
double Quantile(std::vector<double> v, double q);
// Percentile of samples quantised to whole units (simulated milliseconds):
// each sample v is spread uniformly over [v - 0.5, v + 0.5), so the result
// moves continuously with the sample mix instead of sticking to integers.
double QuantileQuantised(std::vector<uint64_t> v, double q);

// Robust window statistics: [t0, t1) is cut into slices of about a
// second, f(values, slice_seconds) is computed on the samples (t, value)
// of each slice, and the median over slices is returned. A stall or an
// election then spoils one slice, not the run's figure.
using Samples = std::vector<std::pair<double, double>>;
double SliceMedian(const Samples& samples, double t0, double t1,
                   const std::function<double(std::vector<double>&, double)>& f);
double SliceRate(const Samples& samples, double t0, double t1);
double SliceQuantile(const Samples& samples, double t0, double t1, double q,
                     bool quantised = false);

// Least-squares slope of y over x.
double Slope(const Samples& xy);

double WallSeconds();       // steady clock
uint64_t NowUs();           // steady clock, microseconds
uint64_t NowNs();           // steady clock, nanoseconds
uint64_t ThreadCpuNs();     // calling thread
uint64_t ProcessCpuNs();    // whole process
uint64_t ThreadCpuNsOf(int tid);  // any thread of this process
std::vector<int> ThreadIds();
int CurrentTid();
// Heap bytes in use (all malloc arenas plus mmap'd chunks). Unlike RSS it
// stays exact when memory freed by an earlier set-up is reused. Heap growth
// per committed transaction is the slope of these samples over the commit
// seqno through a window; a slope is not thrown by what happens to be
// allocated at the window's two ends.
uint64_t HeapBytesInUse();

// ------------------------------------------------------ registry deltas

// Registry::ToJson() snapshots of one node, and readers for their deltas.
struct RegSnap {
  json::Value v;
  uint64_t Counter(const std::string& name) const;
  uint64_t HistCount(const std::string& name) const;
  uint64_t HistSum(const std::string& name) const;
  uint64_t HistField(const std::string& name, const char* field) const;
  // Name of the "rpc.latency_us.*" histogram with the most samples.
  std::string BusiestEndpoint() const;
};

// ------------------------------------------------------------- replay

// What a traced run hands the replay: its own request/response bytes, the
// primary's final store and the ledger entries written in the window.
struct ReplayInput {
  std::vector<Bytes> requests;   // serialized HTTP requests
  std::vector<Bytes> responses;  // serialized HTTP responses
  const rpc::EndpointRegistry* app_endpoints = nullptr;
  kv::State final_state;
  uint64_t final_seqno = 0;
  std::vector<ledger::Entry> entries;  // consecutive, from the window
  uint64_t tree_size = 0;
  double mean_crossing_bytes = 64;
  // The workload's transaction shape, rebuilt on the copied store.
  std::function<void(kv::Tx*, uint64_t i)> read_tx;
  std::function<void(kv::Tx*, uint64_t i)> write_tx;
};

// Microseconds per call of each replayed public function (README.md,
// "Replay").
struct ReplayCosts {
  double tee_cross_us = 0;
  double stls_us = 0;
  double http_us = 0;
  double json_us = 0;
  double kv_read_us = 0;
  double kv_commit_us = 0;
  double kv_seal_us = 0;
  double kv_apply_us = 0;
  double merkle_append_us = 0;
  double ledger_append_us = 0;
  double gcm_us_per_kb = 0;
  double sha256_us_per_kb = 0;
  double sign_us = 0;
  double verify_us = 0;
  double verify_batch_us = 0;
};

ReplayCosts Replay(const ReplayInput& in);

// The last ledger entries of a node (at most 2000), for the replay.
std::vector<ledger::Entry> RecentEntries(const node::Node* n);

// Per-request counts on the primary that the unattributed remainder
// subtracts replayed costs for.
struct PrimaryWork {
  double tick_us_per_tx = 0;
  double h2e_per_tx = 0;
  double e2h_per_tx = 0;
  double served_share = 1;       // share of requests the primary served
  double writes_per_tx = 0;      // write transactions per request
  double reads_per_tx = 0;       // read transactions per request
  double entries_per_tx = 0;     // ledger entries appended per request
  double chan_kb_per_tx = 0;     // node-channel KiB the primary sealed
  double signs_per_tx = 0;
};
double Unattributed(const PrimaryWork& w, const ReplayCosts& c);

// Adds the replay and crypto rows shared by every traced run.
void AddReplayMetrics(const ReplayCosts& c, Outcome* out);

// Workload entry points.
Outcome RunLive(const Options& opt);
Outcome RunSmallBank(const Options& opt);

}  // namespace perfbench

#endif  // CCF_PERFBENCH_BENCH_H_
