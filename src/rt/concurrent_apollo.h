// ConcurrentApollo: the Apollo middleware pipeline on real threads.
//
// The simulator runs the whole middleware on one deterministic event
// loop; this adapter runs the same pipeline — versioned result cache,
// session consistency, publish-subscribe single-flight, transition-graph
// learning, FDQ/ADQ discovery, freshness-gated pipelined prediction and
// informed ADQ reload — with hardware parallelism:
//
//   - Per-session client worker threads call Execute() synchronously.
//     The serving path (cache lookup, version-vector math, remote round
//     trip) runs in parallel across sessions; remote completions are
//     delivered as rt::Future values and only client threads block on
//     them.
//   - Predictive executions and ADQ reloads are dispatched to a bounded
//     rt::ThreadPool as kPredictive tasks; at the queue watermark they
//     are rejected (reject-predictions-first backpressure, the
//     thread-level mirror of the WAN shed policy).
//   - The learning/predict-decide stage runs core::PredictionEngine, the
//     same decision code the simulator hosts. It is serialized PER
//     SESSION under a striped lock table (`learn_shards_`, DESIGN.md
//     Section 14): each session's transition ladder, satisfied sets and
//     window state are independent, so sessions in different shards learn
//     concurrently. Cross-session structures (ParamMapper,
//     TemplateCache, DependencyGraph) carry their own internal
//     striping/locking; composite read-then-mutate sequences on them are
//     serialized per session by the shard, and the benign races that
//     remain across shards (two sessions discovering the same FDQ) are
//     absorbed by DependencyGraph::Add's first-writer-wins contract.
//   - Every prediction fan-out co-issued from one trigger rides a single
//     WAN round trip through DbGateway::ExecuteBatchAsync — including the
//     triggering client query when it must go remote anyway — and all
//     speculative completions are continuation-style (Future::Then): no
//     worker thread ever sleeps out a round trip. Past a non-zero RTT the
//     continuations run on pool threads; at rtt 0 the gateway completes
//     the batch on the submitting thread, so they run inline there (the
//     client thread in RoundTrip, or the pool worker in
//     RunPredictionBatch). Neither caller holds a lock across SendBatch.
//
// Lock ordering (DESIGN.md Sections 9, 14 and 16): learn shard(s)
// (all-shard acquisitions in ascending index order) -> sessions_mu_ ->
// session.mu -> structure-internal leaf locks (cache shards, mapper /
// transition-graph stripes, dependency graph, single-flight table).
// Cross-session satisfied-set clears run after the disproving session's
// mu is released (still under its shard), so no thread ever waits on
// another session's mu while holding its own. ReadProtocol::Publish runs
// with no session lock held: a subscribed prediction's completion takes
// its learn shard, then session.mu. No thread blocks on a Future while
// holding any of these, and pool worker threads never block on a Future
// at all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/kv_cache.h"
#include "core/client_session.h"
#include "core/config.h"
#include "core/prediction_engine.h"
#include "core/read_protocol.h"
#include "db/database.h"
#include "obs/observability.h"
#include "rt/db_gateway.h"
#include "rt/future.h"
#include "rt/overload.h"
#include "rt/thread_pool.h"
#include "sql/template_cache.h"

namespace apollo::persist {
struct LearnedState;
struct RestoreStats;
struct Snapshot;
}  // namespace apollo::persist

namespace apollo::rt {

/// Crash-tolerant learned state (DESIGN.md Section 11). With `path`
/// empty, persistence is disabled: no snapshot I/O and no checkpointer
/// thread. Otherwise construction warm-restarts from `path` if a snapshot
/// is there, and Shutdown writes one final snapshot.
struct PersistOptions {
  std::string path;  // snapshot file; "" disables persistence
  /// > 0 starts a background checkpointer that snapshots every interval.
  /// 0 means checkpoints happen only on demand / at shutdown.
  int checkpoint_interval_ms = 0;
};

struct ConcurrentApolloConfig {
  core::ApolloConfig apollo;  // learning tunables + feature toggles
  ThreadPoolConfig pool;      // prediction/I-O pool size + backpressure
  DbGatewayConfig gateway;    // real-time WAN round trip
  size_t cache_bytes = 8u << 20;
  PersistOptions persist;     // learned-state snapshots (off by default)
  /// Overload control & graceful brownout (DESIGN.md Section 12). Off by
  /// default: no controller and no default deadline.
  OverloadConfig overload;
  /// Invoked after every successful client write with the post-write
  /// table-version snapshot the write observed (the same versions that
  /// advanced the session's vector). The cluster layer (DESIGN.md
  /// Section 15) taps this to drive cross-edge invalidation fan-out.
  /// Called without any runtime lock held; null (the default) costs
  /// nothing.
  std::function<void(const std::unordered_map<std::string, uint64_t>&)>
      on_write;
};

class ConcurrentApollo {
 public:
  /// Stripes of the learn-lock table (sessions hash to shards by id).
  static constexpr size_t kLearnShards = 16;
  /// Upper bound on statements per batched round trip; fan-out beyond it
  /// overflows into additional (concurrently in-flight) batches.
  static constexpr size_t kMaxBatchStatements = 16;
  /// Shards of the result cache.
  static constexpr size_t kCacheShards = 8;

  /// Every instrument is registered here, whatever the config (the
  /// BrownoutController's own exist only when overload control is on).
  /// `obs` may be null (a private bundle is created). Instruments are
  /// registered under `metric_prefix` ("rt." by default).
  ConcurrentApollo(db::Database* db, ConcurrentApolloConfig config,
                   obs::Observability* obs = nullptr,
                   const std::string& metric_prefix = "rt.");
  ~ConcurrentApollo();

  ConcurrentApollo(const ConcurrentApollo&) = delete;
  ConcurrentApollo& operator=(const ConcurrentApollo&) = delete;

  /// Executes one SQL statement on behalf of `client`, blocking the
  /// calling thread until the result is available (cache hit, coalesced
  /// wait, or remote round trip). Thread-safe; call from one worker
  /// thread per session for the intended parallelism. The no-deadline
  /// overload stamps `overload.default_deadline` when one is configured.
  util::Result<common::ResultSetPtr> Execute(core::ClientId client,
                                             const std::string& sql);
  /// Deadline-aware variant: work whose remaining budget cannot cover the
  /// WAN round trip is cancelled with DeadlineExceeded instead of queued
  /// (kNoDeadline = unbounded). At brownout level kReject the query is
  /// refused immediately with Unavailable (backpressure to the caller).
  util::Result<common::ResultSetPtr> Execute(core::ClientId client,
                                             const std::string& sql,
                                             Deadline deadline);

  /// Stops the gateway's WAN timer, drains the pool and joins its workers
  /// (stopping the background checkpointer first, then — if configured —
  /// writing one final snapshot). Idempotent; also run by the destructor.
  /// Execute must not be called afterwards.
  void Shutdown();

  /// Takes a consistent copy of the learning state (templates, param
  /// mapper, dependency graph, per-session transition graphs and
  /// satisfied sets) under every learn shard (ascending order) plus the
  /// session locks, then encodes and writes it atomically to the
  /// configured snapshot path off-lock (copy-then-write). Lock-hold time
  /// lands in "persist.checkpoint_copy_wall_us". Error if persistence is
  /// disabled; thread-safe.
  util::Status CheckpointNow();

  /// Loads the snapshot at the configured path into the live structures
  /// (the constructor runs this whenever persistence is enabled).
  /// Damaged sections are skipped individually — everything intact still
  /// loads. Only learning state travels: the result cache and session
  /// version vectors restart empty, so restored knowledge is never
  /// mistaken for restored data freshness. kNotFound if no snapshot
  /// exists yet.
  util::Status RestoreNow(persist::RestoreStats* stats = nullptr);

  /// Serializes the learned state to snapshot bytes (the same
  /// section-framed image CheckpointNow writes) without requiring
  /// persistence to be configured. The cluster layer gossips these bytes
  /// between edges so a joining edge warm-starts from a live peer
  /// (DESIGN.md Section 15). Thread-safe; same consistent-copy discipline
  /// as CheckpointNow.
  std::string SnapshotBytes();

  /// Restores learned state from snapshot bytes (the receiving half of
  /// gossip). Section-level damage is skipped, never fatal — a corrupt
  /// peer section costs only that section. Works with persistence
  /// disabled; fails only when the snapshot header itself is unusable.
  util::Status RestoreFromBytes(std::string_view bytes,
                                persist::RestoreStats* stats = nullptr);

  /// Copies the session's version vector (and own-writes floor) out so a
  /// cluster router can carry them across an edge failover. False if the
  /// session does not exist here; either output may be null.
  bool ExportSessionVv(core::ClientId client, cache::VersionVector* vv,
                       cache::VersionVector* written_vv = nullptr);

  /// Merges carried vectors into the session (created if absent). Merge
  /// is componentwise max — it only ever *advances* the session's
  /// freshness requirement, so importing can cause extra cache misses but
  /// never a stale serve. Used both to land a failed-over session on its
  /// new edge and to apply the cluster invalidation floor.
  void ImportSessionVv(core::ClientId client, const cache::VersionVector& vv,
                       const cache::VersionVector& written_vv);

  obs::Observability& observability() { return *obs_; }
  cache::KvCache& result_cache() { return cache_; }
  const sql::TemplateCache& template_cache() const { return tcache_; }
  /// The correlation learner, or null with prediction off (Memcached), as
  /// on the simulator host.
  core::PredictionEngine* prediction_engine() {
    return config_.apollo.enable_prediction ? &engine_ : nullptr;
  }
  ThreadPool& pool() { return pool_; }
  DbGateway& gateway() { return gateway_; }
  /// Null unless overload control is enabled.
  BrownoutController* brownout() { return brownout_.get(); }
  const ConcurrentApolloConfig& config() const { return config_; }

  /// True when no deferred work remains anywhere: every pool task accepted
  /// has finished, every gateway batch accepted has completed, and no
  /// single-flight entry is in flight. Exact, not sampled: work moves
  /// between the pool and the gateway only inside a counted task or
  /// batch. Tests poll this between interactions (with no client query
  /// running) so every async completion, and the learning it triggers,
  /// lands before the next query is issued.
  bool Quiescent();

  /// Microseconds of real time since construction — the runtime's clock,
  /// used wherever the simulated pipeline used the event loop's now().
  util::SimTime NowUs() const;

 private:
  /// A session plus the mutex that guards it (vv, stream, recent results,
  /// learning scratch state). core::ClientSession is the same per-session
  /// state the simulator's host gives the PredictionEngine.
  struct Session {
    Session(core::ClientId id, const core::ApolloConfig& config)
        : core(id, config) {}
    std::mutex mu;
    core::ClientSession core;
    /// Versions this session has itself written (a floor under the full
    /// vv). Brownout serve-stale (L3) relaxes monotonic reads but never
    /// read-your-writes: stale entries must still dominate this vector.
    /// Lives here, not in core::ClientSession, which is shared with the
    /// event-loop host.
    cache::VersionVector written_vv;
  };

  /// What a single-flight leader publishes to subscribers.
  struct Published {
    util::Result<common::ResultSetPtr> result =
        util::Result<common::ResultSetPtr>(nullptr);
    cache::VersionVector stamp;
  };

  /// One trigger's whole prediction fan-out, collected from the engine
  /// for batched issue. `deferred` holds FDQs that need the pending
  /// trigger's result rows (re-decided once the result lands).
  struct PredictionPlan final : core::PredictionSink {
    std::vector<core::PredictionItem> items;
    std::vector<core::Fdq*> deferred;
    void Issue(const core::PredictionItem& item) override {
      items.push_back(item);
    }
    void Defer(core::Fdq* f) override { deferred.push_back(f); }
  };

  /// A prediction item that passed admission, the cache check and
  /// single-flight leadership, ready to ride a batched round trip.
  struct ArmedPrediction {
    core::PredictionItem item;
    sql::AdmittedQuery adm;
  };

  Session& SessionFor(core::ClientId client);

  /// Admits one query through the template cache (lex fast path with full
  /// parse fallback), recording the real admission cost into the
  /// admit_fast/admit_full wall histograms.
  util::Result<sql::AdmittedQuery> AdmitQuery(const std::string& sql);

  util::Result<common::ResultSetPtr> ExecuteRead(Session& session,
                                                 sql::AdmittedQuery adm,
                                                 Deadline deadline);
  util::Result<common::ResultSetPtr> ExecuteWrite(Session& session,
                                                  sql::AdmittedQuery adm,
                                                  Deadline deadline);
  /// Leader / fallback remote read: pre-issue learning pass, then ONE
  /// round trip carrying the client query plus every co-issued
  /// prediction, then cache fill, vv advance, publish (when `publish`)
  /// and the post-pass (result into `recent`, deferred FDQs re-decided).
  util::Result<common::ResultSetPtr> RemoteRead(Session& session,
                                                const sql::AdmittedQuery& adm,
                                                bool publish,
                                                Deadline deadline);
  /// Sends client statement `adm` with as many of `items` as fit armed
  /// onto the same round trip (the rest go out as their own plan), and
  /// blocks for the client statement's result. `vv_check` is the vector
  /// co-issued items are cache-checked against: what the trip is about to
  /// make the session see.
  RemoteResult RoundTrip(Session& session, const sql::AdmittedQuery& adm,
                         bool is_write, const cache::VersionVector& vv_check,
                         std::vector<core::PredictionItem> items,
                         Deadline deadline, util::SimDuration* remote_time);
  /// Learning for a client read served without a round trip (cache hit,
  /// stale serve, coalesced wait).
  void FinishRead(Session& session, const sql::AdmittedQuery& adm,
                  common::ResultSetPtr result);

  /// Locks the learn shard owning `session_key`, recording the wait into
  /// the aggregate and the per-shard wait histograms.
  std::unique_lock<std::mutex> LockLearn(uint64_t session_key);
  /// Locks every learn shard in ascending index order (the fixed total
  /// order that makes whole-engine stops — checkpoint copy, restore —
  /// deadlock-free against per-session learners).
  std::vector<std::unique_lock<std::mutex>> LockAllLearn();

  /// Runs the engine's learning pass, Algorithm 2 and (for writes) the
  /// ADQ reload for one client query under the session's learn shard and
  /// session.mu, collecting decisions into `plan`. Then clears the other
  /// sessions' satisfied sets for any FDQ the pass invalidated, after
  /// session.mu is released: acquiring another session's mu while holding
  /// one's own could deadlock two sharded learners (DESIGN.md Section 14).
  void Learn(Session& session, const core::ObservedQuery& q,
             PredictionPlan* plan);
  /// Pipelining continuation of a landed prediction (engine under the
  /// shard), issuing whatever it makes ready.
  void OnPredictionCompleted(Session& session, uint64_t template_id,
                             common::ResultSetPtr result, int depth);

  /// Brownout gates, the engine's per-prediction veto. True = vetoed
  /// (counters/trace already recorded). Called with shard + s.mu held.
  bool BrownoutVetoesPrediction(const core::ClientSession& s,
                                const core::Fdq& f, uint64_t trigger);

  /// Submits ONE kPredictive pool task that arms every item and issues
  /// them as batched round trips with Then-continuation completions.
  /// Sheds the whole plan at the watermark. Called WITHOUT shard or
  /// session locks held.
  void IssuePredictionPlan(Session& session,
                           std::vector<core::PredictionItem> items);
  /// Pool-task body: arm + batch + register continuations.
  void RunPredictionBatch(Session& session,
                          std::vector<core::PredictionItem> items);
  /// Admission + cache-skip + single-flight leadership for one item,
  /// counted as issued when it is armed. False = skipped, counters
  /// recorded. `vv_check` is the vector to test cache compatibility
  /// against.
  bool ArmPrediction(Session& session, const core::PredictionItem& item,
                     const cache::VersionVector& vv_check,
                     ArmedPrediction* out);
  /// Sends `stmts` as one round trip and registers FinishPrediction on the
  /// futures of `armed`, which are the trailing statements of the batch.
  /// Called with no lock held: at rtt 0 the batch and its continuations
  /// run on this thread.
  std::vector<Future<RemoteResult>> SendBatch(
      Session& session, std::vector<BatchStatement> stmts,
      std::vector<ArmedPrediction> armed, Deadline deadline);
  /// Continuation run when an armed prediction's result lands: cache
  /// fill, single-flight publish, learning. Runs via Future::Then on a
  /// pool thread, or at rtt 0 on the thread that sent the batch.
  void FinishPrediction(Session& session, const ArmedPrediction& armed,
                        std::chrono::steady_clock::time_point t0,
                        const RemoteResult& rr);

  /// Consistent learned-state copy (all learn shards + session locks, the
  /// CheckpointNow discipline) encoded to a serialized snapshot image.
  /// Lock-hold wall time is reported through `copy_wall_us` when non-null.
  std::string BuildSnapshotBytes(int64_t* copy_wall_us);

  /// Where the learned state lives, for the shared snapshot code
  /// (persist/learned_state.h). Callers hold every learn shard; the
  /// session callbacks take sessions_mu_ and each session's mu.
  persist::LearnedState LearnedStateView();

  /// Applies a parsed snapshot (shared by RestoreNow and
  /// RestoreFromBytes). Damaged sections are skipped and counted.
  void ApplySnapshot(const persist::Snapshot& snap,
                     persist::RestoreStats* stats);

  /// Starts the periodic checkpointer thread (persistence enabled and
  /// checkpoint_interval_ms > 0 only).
  void StartCheckpointer();

  /// Pool config derived from config_: when overload control is on, wires
  /// the controller's sojourn feed. Called from the member-init list after
  /// brownout_ is constructed.
  ThreadPoolConfig BuildPoolConfig();

  db::Database* db_;
  ConcurrentApolloConfig config_;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;

  cache::KvCache cache_;
  /// The template catalog: admission fast path, prepared statements and
  /// per-template statistics (DESIGN.md Section 10). Steady state admits
  /// without building an AST.
  sql::TemplateCache tcache_;
  /// Session consistency and single flight over cache_ (DESIGN.md §16).
  core::ReadProtocol protocol_;
  /// Non-null iff overload control is enabled. Declared (and constructed)
  /// BEFORE pool_: the pool's workers may invoke the sojourn callback as
  /// soon as they start.
  std::unique_ptr<BrownoutController> brownout_;
  ThreadPool pool_;
  DbGateway gateway_;

  /// Registered right after the pool's and gateway's instruments (the
  /// registry exports in registration order); the engine borrows them.
  struct Counters {
    obs::Counter* queries;
    obs::Counter* reads;
    obs::Counter* writes;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* coalesced_waits;
    obs::Counter* parse_errors;
    obs::Counter* subscriber_fallbacks;
    obs::Counter* predictions_issued;
    obs::Counter* predictions_shed;
    obs::Counter* predictions_skipped;
    obs::Counter* adq_reloads;
    obs::Counter* fdqs_discovered;
    obs::Counter* fdqs_invalidated;
    obs::Counter* find_fdq_calls;
    obs::Counter* construct_fdq_calls;
    obs::Gauge* find_fdq_wall_us;       // real time
    obs::Gauge* construct_fdq_wall_us;  // real time
  };
  static Counters RegisterCounters(obs::MetricsRegistry& m,
                                   const std::string& prefix);
  Counters c_;
  core::PredictionEngine engine_;

  std::mutex sessions_mu_;
  std::unordered_map<core::ClientId, std::unique_ptr<Session>> sessions_;

  /// Striped learn-lock table (see file comment): shard i serializes the
  /// learning/predict-decide stage of the sessions with id % size == i.
  /// Heap-allocated so shard mutexes never share a cache line.
  struct LearnShard {
    std::mutex mu;
    obs::HistogramMetric* wait_us;  // this shard's lock-wait histogram
  };
  std::vector<std::unique_ptr<LearnShard>> learn_shards_;

  std::chrono::steady_clock::time_point epoch_;
  bool shut_down_ = false;

  /// Background checkpointer (persistence enabled only). stop flag and
  /// cv are guarded by persist_mu_; the thread itself never holds
  /// persist_mu_ while checkpointing, so Shutdown can always interrupt a
  /// sleeping checkpointer immediately.
  std::thread checkpointer_;
  std::mutex persist_mu_;
  std::condition_variable persist_cv_;
  bool stop_checkpointer_ = false;
  /// Serializes whole checkpoints (on-demand CheckpointNow vs. the
  /// periodic thread); never held while serving queries.
  std::mutex checkpoint_mu_;

  obs::HistogramMetric* query_wall_us_;       // client-observed latency
  obs::HistogramMetric* learn_lock_wait_wall_us_;  // aggregate over shards
  obs::HistogramMetric* admit_fast_wall_us_;  // lex fast-path admits
  obs::HistogramMetric* admit_full_wall_us_;  // full-parse admits

  // Persistence, bounded-memory and overload-control instruments; they
  // stay at zero while their feature is off.
  obs::Counter* checkpoints_;
  obs::Counter* checkpoint_errors_;
  obs::Counter* checkpoint_deferred_;
  obs::HistogramMetric* checkpoint_copy_wall_us_;
  obs::HistogramMetric* checkpoint_write_wall_us_;
  obs::Counter* learning_pruned_edges_;
  obs::Counter* learning_pruned_pairs_;
  obs::Counter* overload_rejected_;
  obs::Counter* deadline_missed_;
  obs::Counter* stale_served_;
  obs::Counter* predictions_shed_utility_;
  obs::Counter* adq_reloads_shed_;
};

}  // namespace apollo::rt
