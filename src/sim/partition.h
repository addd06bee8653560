#ifndef DRRS_SIM_PARTITION_H_
#define DRRS_SIM_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "dataflow/stream_element.h"
#include "net/channel.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace drrs::sim {

/// \brief Conservative PDES engine: logical-process-sharded event execution.
///
/// Each logical process (partition) is a full `Simulator` — its own 4-ary
/// event heap, arena, and RNG stream — and the engine advances all of them
/// in lock-step synchronization windows sized by the *lookahead*: the
/// minimum cross-partition channel latency. Within a window [t_min,
/// t_min + lookahead - 1] no partition can causally affect another (every
/// cross-partition arrival lands strictly after the window end), so
/// partitions execute concurrently without rollback (CODES/ROSS-style
/// conservative synchronization).
///
/// Determinism contract: the output of a run is a pure function of the
/// partitioning — which is itself a pure function of the job graph — and
/// NEVER of the thread count. `threads` only chooses how many OS workers the
/// fixed partition→worker mapping (partition_id % workers) spreads LPs over.
/// All cross-partition interaction flows through per-(sender,receiver)
/// mailbox lanes drained at window barriers in canonical lane order
/// (sender-major, FIFO within lane), so the receiver-side event insertion
/// sequence — and therefore the same-timestamp merge order (timestamp, then
/// insertion seq, then partition id) — is identical for every thread count,
/// including 1.
///
/// Concurrency discipline (checked by Clang TSA under DRRS_THREAD_SAFETY):
/// the lane mutex guards each lane's mail vector; pool_mu_ guards the
/// worker-pool rendezvous fields; and everything that may only run with all
/// workers parked — mailbox replay, global timers, the counter audit —
/// requires the `drrs::kEngineSerialPhase` role capability, acquired solely
/// by the coordinator's barrier scope in RunUntil (and by the destructor
/// after joining the pool).
class PdesEngine : public net::RemoteRouter {
 public:
  struct Options {
    /// OS worker threads to spread partitions over (>= 1). Purely a
    /// performance knob; never observable in simulation output.
    uint32_t threads = 1;
  };

  /// `primary` becomes partition 0 (the control partition). It must be idle
  /// and is not owned.
  PdesEngine(Simulator* primary, const Options& options);
  ~PdesEngine() override;

  PdesEngine(const PdesEngine&) = delete;
  PdesEngine& operator=(const PdesEngine&) = delete;

  /// Size the engine to `count` logical processes (>= 1). Partition 0 is the
  /// primary simulator; partitions 1..count-1 are created here, each with
  /// its partition id set and its RNG seeded as a pure function of
  /// (base_seed, partition id). Must be called exactly once, before any
  /// traffic or RunUntil.
  void SetPartitionCount(uint32_t count, uint64_t base_seed);
  uint32_t partition_count() const {
    return static_cast<uint32_t>(sims_.size());
  }

  /// Simulator driving partition `p`.
  Simulator* partition_sim(uint32_t p);

  /// Fold one cross-partition link latency into the lookahead. Called by the
  /// graph wiring for every remote channel; latency must be >= 1 (a
  /// zero-latency cross-partition link would collapse the window to nothing
  /// and is rejected).
  void NoteCrossPartitionLatency(SimTime latency);
  /// Current conservative window width; kSimTimeMax until the first remote
  /// channel is registered.
  SimTime lookahead() const { return lookahead_; }

  // ---- engine-global timers ----
  //
  // A global timer is a serialization point: the window is clipped so every
  // partition reaches exactly the timer's due time, workers park, and the
  // body runs serially on the coordinator with a globally consistent view
  // (the harness state sampler reads task state across all partitions).
  // Bodies return false to cancel. Ties fire in registration order.

  uint64_t AddGlobalTimer(SimTime start, SimTime period,
                          std::function<bool(SimTime)> body);
  void CancelGlobalTimer(uint64_t id);

  /// Run all partitions until every event at or before `horizon` has
  /// executed (events at exactly `horizon` still run, matching
  /// Simulator::RunUntil). Returns the number of partition events executed
  /// by this call. With a single partition and no global timers this
  /// delegates verbatim to the primary simulator's loop.
  uint64_t RunUntil(SimTime horizon);
  uint64_t RunUntilIdle() { return RunUntil(kSimTimeMax); }

  /// Sum of executed events across all partitions.
  uint64_t ExecutedEvents() const;
  /// Sum of elided events across all partitions.
  uint64_t ElidedEvents() const;

  /// Mailbox traffic counters (posted must equal drained after RunUntil
  /// returns; the destructor checks this).
  uint64_t mail_posted() const {
    return mail_posted_.load(std::memory_order_relaxed);
  }
  /// Coordinator-only: only meaningful between runs (all workers parked).
  uint64_t mail_drained() const DRRS_NO_THREAD_SAFETY_ANALYSIS {
    // Suppressed (DESIGN.md §9): mail_drained_ is guarded by the serial
    // phase; this accessor is a between-run probe for tests and the teardown
    // CHECK, both of which run strictly after RunUntil returned.
    return mail_drained_;
  }

  // ---- net::RemoteRouter ----
  void PostRemote(net::Channel* channel, SimTime arrival,
                  dataflow::StreamElement element, bool bypass) override;
  void PostRemoteCredit(net::Channel* channel, uint32_t credits) override;

 private:
  /// One mailbox entry: a cross-partition element (wire or bypass path) or a
  /// batch of returned credits.
  struct Mail {
    enum class Kind : uint8_t { kElement, kBypass, kCredit };
    Kind kind = Kind::kElement;
    net::Channel* channel = nullptr;
    SimTime arrival = 0;     ///< element/bypass arrival time
    uint32_t credits = 0;    ///< credit count (kCredit)
    dataflow::StreamElement element;
  };

  /// One directional lane (from-partition, to-partition). Posts come from
  /// whichever worker runs the sender partition; the mutex serializes posts
  /// against each other and against the coordinator's barrier swap.
  struct Lane {
    // The mailbox's documented synchronization point; drained only at
    // barriers in canonical order.
    // lint:allow(thread-shared-state): lane mutex, barrier-drained.
    Mutex mu;
    std::vector<Mail> mail DRRS_GUARDED_BY(mu);
  };

  Lane& lane(uint32_t from, uint32_t to) {
    return *lanes_[from * sims_.size() + to];
  }

  /// Replay every lane once in canonical order (sender-major, receiver-minor,
  /// FIFO within lane). Returns true if any mail was replayed. Replaying
  /// credits can post fresh mail, so DrainMailbox loops until a pass is dry.
  /// Serial-phase only: replay touches receiver-side channel state.
  bool DrainMailboxOnce() DRRS_REQUIRES(kEngineSerialPhase);
  void DrainMailbox() DRRS_REQUIRES(kEngineSerialPhase);

  /// Run partitions assigned to `executor` up to `w_end` inclusive.
  void RunShard(uint32_t executor, SimTime w_end);
  /// Execute one window on all partitions using the worker pool; returns
  /// with all workers parked at the barrier.
  void ParallelWindow(SimTime w_end);
  void EnsureWorkers();
  void WorkerMain(uint32_t executor);

  /// Earliest pending event time across all partitions.
  SimTime MinNextEventTime() const;
  /// Earliest non-cancelled global-timer due time.
  SimTime NextGlobalTime() const;
  /// Fire (serially, in registration order) every timer due exactly at `t`.
  /// Bodies get a globally consistent view, hence the serial-phase token.
  void FireGlobalTimersAt(SimTime t) DRRS_REQUIRES(kEngineSerialPhase);

  struct GlobalTimer {
    uint64_t id = 0;
    SimTime next = 0;
    SimTime period = 0;
    std::function<bool(SimTime)> body;
    bool cancelled = false;
  };

  Simulator* primary_;
  Options options_;
  std::vector<Simulator*> sims_;  ///< index = partition id; [0] == primary_
  std::vector<std::unique_ptr<Simulator>> owned_sims_;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< P*P, row-major by sender

  SimTime lookahead_ = kSimTimeMax;
  bool has_remote_links_ = false;
  /// min(options_.threads, partition count), fixed at SetPartitionCount;
  /// executor of partition p is p % worker_count_, with executor 0 run by
  /// the coordinating thread itself.
  uint32_t worker_count_ = 1;

  std::vector<GlobalTimer> global_timers_;
  uint64_t next_timer_id_ = 1;

  // Worker-pool rendezvous state, guarded by pool_mu_ and only mutated at
  // window boundaries.
  // lint:allow(thread-shared-state): sanctioned barrier machinery; see above.
  std::vector<std::thread> workers_;
  Mutex pool_mu_;
  CondVar cv_work_;
  CondVar cv_done_;
  uint64_t generation_ DRRS_GUARDED_BY(pool_mu_) = 0;       ///< bumped per window
  uint32_t pending_workers_ DRRS_GUARDED_BY(pool_mu_) = 0;  ///< still in window
  SimTime window_end_ DRRS_GUARDED_BY(pool_mu_) = 0;        ///< window horizon
  bool shutdown_ DRRS_GUARDED_BY(pool_mu_) = false;

  // Posted/drained audit pair; compared only at barriers and in the
  // destructor, after every worker has parked.
  // lint:allow(thread-shared-state): counter read only at barriers.
  std::atomic<uint64_t> mail_posted_{0};
  uint64_t mail_drained_ DRRS_GUARDED_BY(kEngineSerialPhase) = 0;
};

}  // namespace drrs::sim

#endif  // DRRS_SIM_PARTITION_H_
