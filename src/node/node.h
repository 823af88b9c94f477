// A CCF node: the integration of every substrate in this repository.
//
// One Node object contains both halves of Figure 2:
//   - the untrusted HOST: network endpoint (simulation process), the
//     append-only ledger on "disk", snapshot files;
//   - the ENCLAVE: node & service keys, the transactional KV store, the
//     Merkle tree, the consensus layer, the endpoint dispatcher, the
//     governance engine, and the script runtime.
// All network payloads cross between the two through the ring-buffer
// boundary (tee::EnclaveBoundary), where the TEE mode's cost applies.
// Ledger persistence is modelled as direct host-object calls.
//
// A node starts in one of three ways (paper §5):
//   - CreateGenesis: first node of a new service; creates the service
//     identity and the genesis transaction.
//   - CreateJoiner: attests to an existing service over STLS and receives
//     the service secrets, a snapshot, and a node certificate (§4.4).
//   - CreateRecovery: disaster recovery from ledger files (§5.2): public
//     state is restored immediately; private state after enough members
//     submit their recovery shares.

#ifndef CCF_NODE_NODE_H_
#define CCF_NODE_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consensus/raft.h"
#include "gov/records.h"
#include "gov/shares.h"
#include "http/http.h"
#include "kv/encryptor.h"
#include "kv/snapshot.h"
#include "kv/store.h"
#include "ledger/ledger.h"
#include "merkle/merkle.h"
#include "merkle/receipt.h"
#include "node/app.h"
#include "node/client_core.h"
#include "node/config.h"
#include "node/historical.h"
#include "node/indexing.h"
#include "node/snapshots.h"
#include "observe/metrics.h"
#include "rpc/endpoints.h"
#include "rpc/session.h"
#include "sim/environment.h"
#include "tee/worker_pool.h"

namespace ccf::node {

// Host-side network transport behind DrainEnclaveOutbox. The simulator's
// Environment::Send is the default; the live TCP host (src/host) installs
// an implementation over real sockets via SetHostTransport. Calls arrive
// on whatever thread drives Node::Tick; implementations that own an IO
// thread must make these safe to call from the tick thread.
class HostTransport {
 public:
  virtual ~HostTransport() = default;
  // Deliver `payload` to the node or client session labelled `to`.
  virtual void NetSend(const std::string& to, Bytes payload) = 0;
  // The enclave asked to close this session's connection (after any
  // responses already queued ahead of it).
  virtual void CloseSession(const std::string& peer) { (void)peer; }
};

class Node : public consensus::RaftCallbacks {
 public:
  static std::unique_ptr<Node> CreateGenesis(NodeConfig config,
                                             const ServiceInit& init,
                                             Application* app,
                                             sim::Environment* env);
  static std::unique_ptr<Node> CreateJoiner(
      NodeConfig config, crypto::PublicKeyBytes service_identity,
      const std::string& target_node, Application* app,
      sim::Environment* env);
  static std::unique_ptr<Node> CreateRecovery(NodeConfig config,
                                              ledger::Ledger restored,
                                              Application* app,
                                              sim::Environment* env);
  // Disaster recovery from a persisted directory: loads the ledger chunks
  // and, when the ledger starts past seqno 1 (chunks below the snapshot
  // horizon were retired), requires and verifies the matching snapshot
  // bundle before bootstrapping from snapshot + suffix (paper §4.4, §5.2).
  static Result<std::unique_ptr<Node>> CreateRecoveryFromDir(
      NodeConfig config, const std::string& dir, Application* app,
      sim::Environment* env);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ------------------------------------------------------------ state

  const std::string& id() const { return config_.node_id; }
  // Accessors are safe before a joiner has completed its join.
  bool IsPrimary() const { return raft_ != nullptr && raft_->IsPrimary(); }
  uint64_t view() const { return raft_ != nullptr ? raft_->view() : 0; }
  uint64_t commit_seqno() const {
    return raft_ != nullptr ? raft_->commit_seqno() : 0;
  }
  uint64_t last_seqno() const {
    return raft_ != nullptr ? raft_->last_seqno() : 0;
  }
  bool has_joined() const { return raft_ != nullptr; }
  const crypto::PublicKeyBytes& service_identity() const {
    return service_identity_;
  }
  gov::ServiceStatus service_status() const;
  // True once this node's retirement has committed and it can be shut
  // down by the operator (paper §4.5).
  bool retired() const { return retired_; }

  consensus::RaftNode& raft() { return *raft_; }
  const consensus::RaftNode& raft() const { return *raft_; }

  // Unified metrics registry (tee boundary, worker pool, consensus, rpc,
  // crypto/historical counters; exposed via GET /node/metrics).
  observe::Registry& metrics() { return metrics_; }
  const observe::Registry& metrics() const { return metrics_; }

  // Node-to-node channel AEAD state (tests / operator). A channel rekeys
  // (fail closed: fresh HKDF epoch, counter reset) before its per-epoch
  // message counter can reach the GCM nonce limit.
  static constexpr uint64_t kChannelRekeyAt = uint64_t{1} << 48;
  uint64_t channel_send_counter(const std::string& peer) const;
  uint32_t channel_send_epoch(const std::string& peer) const;
  // Test-only: jump the counter next to the threshold to exercise rekey.
  void TestForceChannelCounter(const std::string& peer, uint64_t value);
  const tee::WorkerPool& worker_pool() const { return worker_pool_; }
  kv::Store& store() { return store_; }
  const kv::Store& store() const { return store_; }
  const merkle::MerkleTree& tree() const { return tree_; }
  const ledger::Ledger& host_ledger() const { return host_ledger_; }
  const tee::EnclaveBoundary& boundary() const { return boundary_; }

  // ------------------------------------------------------- host ops

  Status SaveLedgerToDir(const std::string& dir) const {
    return ledger::SaveToDir(host_ledger_, dir);
  }
  // Persists the host's latest snapshot bundle (if any) next to the
  // ledger chunks as "snapshot_<seqno>".
  Status SaveSnapshotToDir(const std::string& dir) const;
  // Seqno of the latest snapshot bundle the host holds (0 = none).
  uint64_t host_snapshot_seqno() const { return host_snapshot_seqno_; }

  void InstallIndexingStrategy(std::shared_ptr<indexing::Strategy> strategy) {
    indexer_.Install(std::move(strategy));
  }
  indexing::Indexer& indexer() { return indexer_; }
  historical::StateCache& historical() { return *historical_; }
  const historical::StateCache& historical() const { return *historical_; }
  // Largest committed seqno a receipt can be built for: the boundary of
  // the last committed signed root, clamped to the commit point. App-level
  // historical queries clamp here so every returned entry is provable.
  uint64_t ReceiptableUpto() const;

  // Member-side helper for recovery drills (reads public state).
  Result<Bytes> ExtractRecoveryShare(const std::string& member_id,
                                     const crypto::KeyPair& member_key);

  // -------------------------------------------- live-host driving
  //
  // In sim mode these are invoked via the environment registration; a
  // live host (src/host) drives them directly instead. Threading contract
  // (DESIGN.md §13): Tick is the single ring consumer and must only ever
  // run on one thread at a time; HostReceive/HostPostSessionClosed are
  // ring producers (MPSC) and may be called concurrently from IO threads.

  // Installs the live transport used by DrainEnclaveOutbox in place of
  // the sim environment. Call before the first Tick.
  void SetHostTransport(HostTransport* transport) { transport_ = transport; }
  // Advances host + enclave state to `now_ms` (wall-clock in live mode,
  // virtual time in sim mode).
  void Tick(uint64_t now_ms);
  // Injects an inbound network payload from `from`. Returns false when the
  // host-to-enclave ring is full — backpressure; the caller should park
  // the connection and retry rather than drop (satellite: ring_full).
  bool HostReceive(const std::string& from, ByteSpan data);
  // Tells the enclave that `peer`'s connection is gone so it can free the
  // session state. Same backpressure contract as HostReceive.
  bool HostPostSessionClosed(const std::string& peer);

  // --------------------------------------------------- RaftCallbacks

  void OnAppend(const consensus::LogEntry& entry) override;
  void OnAppendBatch(
      const std::vector<const consensus::LogEntry*>& entries) override;
  void OnRollback(uint64_t seqno) override;
  void OnCommit(uint64_t seqno) override;
  void OnRoleChange(consensus::Role role, uint64_t view) override;
  void Send(const consensus::NodeId& to,
            const consensus::Message& msg) override;

 private:
  Node(NodeConfig config, Application* app, sim::Environment* env);

  // ------------------------------------------------------ lifecycle

  void InitGenesis(const ServiceInit& init);
  void StartJoin(const std::string& target_node);
  void InitRecovery(ledger::Ledger restored,
                    std::optional<SnapshotBundle> bundle);
  void RegisterWithEnvironment();
  void InstallFrameworkEndpoints();

  // -------------------------------------------------------- driving

  void DrainEnclaveInbox();
  void DrainEnclaveOutbox();
  // Host side of the historical fetch loop: serve a fetch request from the
  // host ledger (applying the environment's host-fault policy), and deliver
  // queued responses whose delay has elapsed into the enclave inbox.
  void HostServeLedgerFetch(ByteSpan payload);
  void HostDeliverFetchResponses();
  // Enclave side: issue a fetch, and route a response to the state cache.
  void EnclaveSendLedgerFetch(uint64_t lo, uint64_t hi);
  void EnclaveHandleFetchResponse(ByteSpan payload);
  // Verifies one host-fetched entry against the Merkle tree and a signed
  // root, then decrypts its private writes (see historical::VerifyFn).
  Result<historical::VerifiedEntry> VerifyFetchedEntry(
      const ledger::Entry& entry);
  // Decodes one committed entry from the host ledger for the indexer.
  bool DecodeCommittedEntry(uint64_t seqno, indexing::CommittedEntry* out);
  void EnclaveProcess(const std::string& from, ByteSpan data);
  // Queues an outbound network message (crosses the boundary).
  void EnclaveSendNet(const std::string& to, ByteSpan data);

  // ------------------------------------------------------- sessions

  void HandleSessionRecord(const std::string& peer, ByteSpan record);
  void HandleChannelMessage(const std::string& peer, ByteSpan payload);
  void SendOnChannel(const std::string& peer, uint8_t channel_type,
                     ByteSpan payload);
  Result<Bytes> ChannelKeyFor(const std::string& peer, uint32_t epoch);
  crypto::AesGcm* ChannelGcmFor(const std::string& peer, uint32_t epoch);
  void BindNodeMetrics();
  std::optional<crypto::PublicKeyBytes> NodePublicKey(
      const std::string& node_id);

  // ------------------------------------------------------- requests

  // One classification shared by native and scripted endpoints: dispatch,
  // forwarding, batching eligibility, and execution all read the same
  // resolution, so a scripted endpoint's "readonly" field and a native
  // EndpointSpec::read_only are one concept (paper §4.3 forwarding rules).
  struct ResolvedEndpoint {
    bool found = false;
    const rpc::EndpointSpec* spec = nullptr;  // native; stable -- the
                                              // registry is immutable
                                              // after construction
    json::Value scripted_spec;                // scripted record (copy)
    bool is_scripted = false;
    bool read_only = false;
    bool exec_parallel = false;
    rpc::AuthPolicy auth = rpc::AuthPolicy::kNoAuth;
    std::string path;  // target with the query string stripped
  };
  ResolvedEndpoint ResolveEndpoint(const std::string& method,
                                   const std::string& target);

  // One entry of the pending optimistic-execution batch (DESIGN.md §12),
  // accumulated by DispatchRequest while draining the enclave inbox and
  // flushed before anything that could commit, forward, or respond.
  struct ExecBatchItem {
    std::string session_peer;
    http::Request request;
    rpc::CallerIdentity caller;
    ResolvedEndpoint re;
  };

  void DispatchRequest(const std::string& session_peer,
                       const http::Request& request);
  void RespondToSession(const std::string& session_peer,
                        const http::Response& response);
  // Drops the session and, in live mode, asks the host to close the
  // underlying connection (tee::kCloseSession).
  void CloseUserSession(const std::string& session_peer);
  // Timed wrapper: runs ExecuteRequestInner and records per-endpoint
  // request/status/latency metrics.
  http::Response ExecuteRequest(const http::Request& request,
                                const rpc::CallerIdentity& caller);
  http::Response ExecuteRequestInner(const http::Request& request,
                                     const rpc::CallerIdentity& caller);
  // Methods (native or scripted) that could serve `path`, excluding
  // `method` itself: non-empty distinguishes 405 from 404 and feeds the
  // Allow: header.
  std::vector<std::string> AllowedMethodsForPath(const std::string& method,
                                                 const std::string& path);
  // Validates the request body against the resolved endpoint's declared
  // request schema (DESIGN.md §14). Returns the structured 400 response
  // on violation; nullopt when valid or no schema is declared. Runs
  // before any KV transaction is opened.
  std::optional<http::Response> CheckRequestSchemaFor(
      const ResolvedEndpoint& re, const http::Request& request);
  // Runs one endpoint handler against a caller-provided transaction, with
  // no commit: the service-open gate, the auth policy, and the handler.
  // Safe on exec-pool workers during a batch's execution phase -- it only
  // reads committed store state and mutates its own tx/response.
  http::Response ExecuteOnTx(const ResolvedEndpoint& re,
                             const http::Request& request,
                             const rpc::CallerIdentity& caller, kv::Tx* tx);
  http::Response ExecuteScriptedOnTx(const json::Value& spec,
                                     const http::Request& request,
                                     const rpc::CallerIdentity& caller,
                                     kv::Tx* tx);
  // Bounded OCC retries: a transaction that keeps losing read-set
  // validation is re-executed serially at most this many times before the
  // request fails with 409.
  static constexpr size_t kExecMaxRetries = 4;
  // Serial commit point for one batched item: validate/commit its
  // phase-A transaction, re-executing serially with bounded retries on
  // conflict (paper §6.4: logic may run multiple times, its transaction
  // is applied exactly once).
  http::Response CommitBatchedItem(const ExecBatchItem& item, kv::Tx* tx,
                                   http::Response resp);
  // Executes the pending batch: every item gets a transaction off the
  // same store head, handlers run on exec_pool_, then a serial commit
  // point validates and responds in submission order. Runs at the end of
  // every inbox drain and before anything that could commit, forward, or
  // respond.
  void FlushExecBatch();
  Result<rpc::CallerIdentity> Authenticate(
      const std::optional<crypto::Certificate>& session_cert);
  Status CheckAuthPolicy(rpc::AuthPolicy policy,
                         const rpc::CallerIdentity& caller);
  void ForwardToPrimary(const std::string& session_peer,
                        const http::Request& request,
                        const rpc::CallerIdentity& caller);

  // -------------------------------------------------- transactions

  // Commits `tx` and replicates the resulting entry. Returns the tx ID.
  Result<consensus::TxId> CommitAndReplicate(kv::Tx* tx,
                                             ledger::EntryType type);
  // Inline sign-and-commit (genesis, role change). The cadence-driven path
  // goes through SubmitDeferredSignature / the worker pool instead.
  void EmitSignature();
  void MaybeEmitSignature(uint64_t now_ms);
  void SubmitDeferredSignature();
  void CommitSignedRoot(const merkle::SignedRoot& sr);
  // Runs worker-pool completions at the deterministic drain point (top of
  // Tick). Blocking unless config_.worker_async.
  void DrainWorkerCompletions();
  // Batch-verifies queued remote signature transactions up to the new
  // commit point.
  void VerifyCommittedSignatures(uint64_t commit_seqno);
  void MaybeSnapshot();
  // Primary-only snapshot evidence/persistence pipeline, driven from Tick
  // (never from inside OnCommit — committing there would re-enter raft):
  // commit the evidence transaction for a freshly captured snapshot, then
  // once the evidence is receipt-provable, attach the receipt and ship
  // the bundle to the host over the boundary (tee::kSnapshotWrite).
  void MaybeCommitSnapshotEvidence();
  void MaybePersistSnapshot();
  // Host side: store a snapshot bundle the enclave asked to persist,
  // applying the environment's snapshot fault policy, and retire ledger
  // chunks below the horizon when configured.
  void HostStoreSnapshot(ByteSpan payload);
  // Primary-only, from Tick: drops consensus log entries below the latest
  // persisted snapshot once every peer's match index has passed them, and
  // offers the bundle to laggards whose next entry fell below the base.
  void MaybeCompactRaftLog();
  // Follower side of snapshot catch-up: verify the offered bundle against
  // the service identity and re-base store/tree/ledger/raft onto it.
  void HandleSnapshotCatchUp(const std::string& peer, ByteSpan body);
  std::optional<consensus::Configuration> DetectReconfiguration(
      const kv::WriteSet& writes, uint64_t seqno);
  std::set<std::string> TrustedNodesInState() const;
  void AppendLeafFor(const ledger::Entry& entry);
  uint64_t ViewAtSeqno(uint64_t seqno) const;
  void HandleOwnRetirement();
  void MaybeCompleteRetirements();

  // ------------------------------------------------ built-in logic

  void HandleJoinRequest(rpc::EndpointContext* ctx);
  void HandleJoinResponse(Result<http::Response> resp);
  Status InstallJoinResponse(const json::Value& body);
  void HandleRecoveryShareSubmission(rpc::EndpointContext* ctx);
  void CompleteRecovery(kv::LedgerSecret secret);
  Result<merkle::Receipt> BuildReceipt(uint64_t seqno);
  // Receipt for explicit digests (the historical path verifies fetched
  // entries whose digests may predate this node's own tx_digests_).
  Result<merkle::Receipt> BuildReceiptForDigests(
      uint64_t view, uint64_t seqno, const crypto::Sha256Digest& write_set,
      const crypto::Sha256Digest& claims);

  // ---------------------------------------------------------- data

  NodeConfig config_;
  Application* app_;
  sim::Environment* env_;              // null in live mode
  HostTransport* transport_ = nullptr; // null in sim mode

  // Declared before every instrumented member so bound metric pointers
  // outlive their users (destruction is reverse order; worker_pool_ is
  // last and its in-flight completions may still record).
  observe::Registry metrics_;

  // ------------------------------ host state
  ledger::Ledger host_ledger_;
  tee::EnclaveBoundary boundary_;
  // Host-side randomness for the fetch-fault policy. Separate from the
  // enclave DRBGs so enabling faults does not perturb key generation.
  crypto::Drbg host_drbg_;
  // Fetch responses in flight on the host, delivered into the enclave
  // inbox once their (1 tick + fault-injected) delay elapses.
  struct PendingHostFetch {
    uint64_t deliver_at_ms = 0;
    uint64_t seq = 0;  // FIFO tiebreak within one deliver_at_ms
    Bytes payload;     // serialized tee::LedgerFetchResponse
  };
  std::vector<PendingHostFetch> host_fetch_queue_;
  uint64_t host_fetch_seq_ = 0;
  // Latest snapshot bundle persisted by the host (serialized; outside the
  // trust boundary — re-verified before any install on the way back in).
  Bytes host_snapshot_bundle_;
  uint64_t host_snapshot_seqno_ = 0;

  // ------------------------------ enclave state
  crypto::Drbg drbg_;
  crypto::KeyPair node_key_;
  crypto::Certificate node_cert_;
  // Service identity. Genesis/recovery nodes generate it; joiners receive
  // the private key after attestation (paper Table 1).
  std::unique_ptr<crypto::KeyPair> service_key_;  // null until trusted
  crypto::PublicKeyBytes service_identity_{};
  crypto::Certificate service_cert_;

  kv::Store store_;
  std::unique_ptr<kv::TxEncryptor> encryptor_;
  kv::LedgerSecret ledger_secret_;
  merkle::MerkleTree tree_;
  std::unique_ptr<consensus::RaftNode> raft_;

  rpc::EndpointRegistry registry_;

  // Per-transaction digests for receipts, indexed by seqno-1.
  struct TxDigests {
    crypto::Sha256Digest write_set;
    crypto::Sha256Digest claims;
  };
  std::vector<TxDigests> tx_digests_;
  // Committed signature roots by seqno (receipt lookup).
  std::map<uint64_t, merkle::SignedRoot> signed_roots_;

  // Sessions from users/joiners, keyed by transport peer id (simulation
  // peer id in sim mode, connection label in live mode).
  struct UserSession {
    std::unique_ptr<rpc::ServerSession> stls;
    http::RequestParser parser;
    bool sticky_forwarding = false;
    // HTTP keep-alive hardening: requests dispatched but not yet
    // responded to (pipelining depth), and whether the connection closes
    // once in-flight responses drain ("connection: close", a parse error,
    // or the pipelining cap).
    size_t in_flight = 0;
    bool close_after = false;
  };
  std::map<std::string, UserSession> sessions_;

  // Node-to-node channel receive/send state. Pair keys are derived per
  // (peer, epoch) from static-static ECDH via HKDF and cached; the send
  // epoch advances (rekey) before the AEAD message counter can approach
  // the nonce limit, and receivers derive whatever epoch the wire names.
  struct ChannelState {
    uint64_t send_counter = 0;
    uint32_t send_epoch = 0;
    // Small per-epoch AEAD cache (our send epoch + the peer's, which may
    // briefly differ around a rekey); pruned to the newest few.
    std::map<uint32_t, std::unique_ptr<crypto::AesGcm>> gcm_by_epoch;
  };
  std::map<std::string, ChannelState> channels_;
  std::map<std::string, crypto::PublicKeyBytes> known_node_keys_;

  // Forwarded requests awaiting a primary response: correlation -> session.
  uint64_t next_correlation_ = 1;
  std::map<uint64_t, std::string> pending_forwards_;

  // Joining state: the STLS client towards the join target, whose pipe
  // is this node's own outbox. Null once the node has joined.
  std::string join_target_;
  std::unique_ptr<ClientCore> join_client_;

  // Recovery state.
  bool recovery_pending_ = false;
  std::map<std::string, Bytes> submitted_shares_;

  // Signature cadence.
  uint64_t txs_since_signature_ = 0;
  uint64_t last_signature_ms_ = 0;
  uint64_t now_ms_ = 0;

  // Snapshots. MaybeSnapshot captures the committed state on every node;
  // the primary then runs the evidence/persistence pipeline: build a
  // bundle, commit its digest as evidence, wait until a receipt covers
  // the evidence, and hand the finished bundle to the host and joiners.
  uint64_t last_snapshot_seqno_ = 0;
  std::optional<kv::Snapshot> latest_snapshot_;
  std::vector<merkle::Digest> snapshot_leaves_;  // tree leaves at snapshot
  std::vector<consensus::Configuration> snapshot_configs_;
  bool snapshot_evidence_due_ = false;  // capture awaiting an evidence tx
  std::optional<SnapshotBundle> pending_bundle_;  // awaiting its receipt
  std::optional<SnapshotBundle> latest_bundle_;   // verified, receipted
  // Bundle a recovery node bootstrapped from (used by CompleteRecovery to
  // rebuild private state below the suffix).
  std::optional<SnapshotBundle> recovery_bundle_;

  // Historical queries + asynchronous indexing (paper §3.4, §3.6).
  indexing::Indexer indexer_;
  std::unique_ptr<historical::StateCache> historical_;
  NodeContext app_context_;

  bool retired_ = false;
  bool integrity_violation_ = false;  // backup saw a bad signature root

  // Deferred signing state: true while a sign job is in flight between
  // SubmitDeferredSignature and its completion at the drain point.
  bool sig_inflight_ = false;

  // Remote signature transactions awaiting Ed25519 verification, queued at
  // append and batch-verified at the commit boundary (in-order by seqno).
  struct PendingSigVerify {
    uint64_t seqno = 0;  // ledger seqno of the signature transaction
    merkle::SignedRoot sr;
  };
  std::deque<PendingSigVerify> pending_sig_verifies_;
  // Combiner-scalar DRBG for VerifyBatch; seeded from the node id so
  // deterministic runs replay identical combiners.
  crypto::Drbg verify_drbg_;

  // Registry-backed counters, bound once in BindNodeMetrics.
  struct CryptoOpMetrics {
    observe::Counter* signs = nullptr;
    observe::Counter* signs_deferred = nullptr;
    observe::Counter* verifies_single = nullptr;
    observe::Counter* verifies_batched = nullptr;
    observe::Counter* verify_batches = nullptr;
    observe::Counter* verify_failures = nullptr;
  };
  CryptoOpMetrics crypto_metrics_;
  struct HistoricalMetrics {
    observe::Counter* host_fetch_requests = nullptr;
    observe::Counter* host_fetch_responses = nullptr;
    observe::Counter* host_fetch_drops = nullptr;
    observe::Counter* host_fetch_corrupts = nullptr;
    observe::Counter* host_fetch_delays = nullptr;
    observe::Counter* host_fetch_reorders = nullptr;
    observe::Counter* entries_verified = nullptr;
    observe::Counter* entries_rejected = nullptr;
  };
  HistoricalMetrics historical_metrics_;
  observe::Counter* m_channel_rekeys_ = nullptr;
  observe::Gauge* m_index_upto_ = nullptr;
  observe::Gauge* m_index_lag_ = nullptr;
  observe::Gauge* m_ledger_entries_ = nullptr;
  struct SnapshotMetrics {
    observe::Counter* taken = nullptr;
    observe::Counter* evidence_committed = nullptr;
    observe::Counter* persisted = nullptr;
    observe::Counter* persist_drops = nullptr;
    observe::Counter* persist_corrupts = nullptr;
  };
  SnapshotMetrics snapshot_metrics_;
  observe::Gauge* m_ledger_base_ = nullptr;
  struct ExecMetrics {
    observe::Counter* batches = nullptr;
    observe::Counter* requests = nullptr;
    observe::Counter* conflicts = nullptr;
    observe::Counter* retries = nullptr;
    observe::Counter* aborts = nullptr;
    observe::Histogram* batch_size = nullptr;
  };
  ExecMetrics exec_metrics_;

  // Pending optimistic-execution batch (DESIGN.md §12).
  std::vector<ExecBatchItem> exec_batch_;

  // Snapshot catch-up offers already sent: peer -> offered bundle seqno
  // (re-offered only once a newer bundle exists).
  std::map<std::string, uint64_t> offered_catchup_;

  // Declared last so they are destroyed first: in-flight jobs may touch
  // other members, which must still be alive while the destructors join.
  tee::WorkerPool worker_pool_;
  // Request-execution pool for batched optimistic execution (DESIGN.md
  // §12); separate from worker_pool_ so crypto offload and request
  // execution are sized independently (exec_threads).
  tee::WorkerPool exec_pool_;
};

}  // namespace ccf::node

#endif  // CCF_NODE_NODE_H_
