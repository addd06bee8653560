#include "sim/partition.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace drrs::sim {

PdesEngine::PdesEngine(Simulator* primary, const Options& options)
    : primary_(primary), options_(options) {
  DRRS_CHECK(primary_ != nullptr);
}

PdesEngine::~PdesEngine() {
  {
    MutexLock l(pool_mu_);
    shutdown_ = true;
  }
  cv_work_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // Every worker has joined: the destructor thread is trivially the only
  // one left, which is exactly the serial-phase claim.
  SerialPhaseScope serial(kEngineSerialPhase);
  DRRS_CHECK(mail_posted_.load(std::memory_order_relaxed) == mail_drained_)
      << "mailbox teardown leak: posted "
      << mail_posted_.load(std::memory_order_relaxed) << " drained "
      << mail_drained_;
}

void PdesEngine::SetPartitionCount(uint32_t count, uint64_t base_seed) {
  DRRS_CHECK(sims_.empty()) << "SetPartitionCount must be called exactly once";
  DRRS_CHECK(count >= 1);
  primary_->set_partition_id(0);
  primary_->SeedRng(base_seed);
  sims_.push_back(primary_);
  for (uint32_t p = 1; p < count; ++p) {
    owned_sims_.push_back(std::make_unique<Simulator>());
    Simulator* s = owned_sims_.back().get();
    s->set_partition_id(p);
    s->SeedRng(base_seed);
    sims_.push_back(s);
  }
  lanes_.reserve(static_cast<size_t>(count) * count);
  for (size_t i = 0; i < static_cast<size_t>(count) * count; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  worker_count_ =
      std::min<uint32_t>(std::max<uint32_t>(options_.threads, 1), count);
}

Simulator* PdesEngine::partition_sim(uint32_t p) {
  DRRS_CHECK(p < sims_.size());
  return sims_[p];
}

void PdesEngine::NoteCrossPartitionLatency(SimTime latency) {
  DRRS_CHECK(latency >= 1)
      << "cross-partition links need positive latency for lookahead";
  has_remote_links_ = true;
  lookahead_ = std::min(lookahead_, latency);
}

uint64_t PdesEngine::AddGlobalTimer(SimTime start, SimTime period,
                                    std::function<bool(SimTime)> body) {
  DRRS_CHECK(start >= 0 && period > 0);
  GlobalTimer t;
  t.id = next_timer_id_++;
  t.next = start;
  t.period = period;
  t.body = std::move(body);
  global_timers_.push_back(std::move(t));
  return global_timers_.back().id;
}

void PdesEngine::CancelGlobalTimer(uint64_t id) {
  for (GlobalTimer& t : global_timers_) {
    if (t.id == id) t.cancelled = true;
  }
}

SimTime PdesEngine::MinNextEventTime() const {
  SimTime t = kSimTimeMax;
  for (const Simulator* s : sims_) t = std::min(t, s->NextEventTime());
  return t;
}

SimTime PdesEngine::NextGlobalTime() const {
  SimTime t = kSimTimeMax;
  for (const GlobalTimer& g : global_timers_) {
    if (!g.cancelled) t = std::min(t, g.next);
  }
  return t;
}

void PdesEngine::FireGlobalTimersAt(SimTime t) {
  // Registration order doubles as the deterministic tie order for timers due
  // at the same instant.
  for (GlobalTimer& g : global_timers_) {
    if (g.cancelled || g.next != t) continue;
    if (g.body(t)) {
      g.next += g.period;
    } else {
      g.cancelled = true;
    }
  }
}

uint64_t PdesEngine::ExecutedEvents() const {
  if (sims_.empty()) return primary_->executed_events();
  uint64_t n = 0;
  for (const Simulator* s : sims_) n += s->executed_events();
  return n;
}

uint64_t PdesEngine::ElidedEvents() const {
  if (sims_.empty()) return primary_->elided_events();
  uint64_t n = 0;
  for (const Simulator* s : sims_) n += s->elided_events();
  return n;
}

uint64_t PdesEngine::RunUntil(SimTime horizon) {
  DRRS_CHECK(!sims_.empty()) << "SetPartitionCount before RunUntil";
  const uint64_t before = ExecutedEvents();
  if (sims_.size() == 1 && global_timers_.empty()) {
    // Single logical process: the window machinery would add nothing, and
    // delegating keeps the run bit-identical to the pre-PDES engine.
    primary_->RunUntil(horizon);
    return ExecutedEvents() - before;
  }
  for (;;) {
    const SimTime t_min = MinNextEventTime();
    const SimTime t_global = NextGlobalTime();
    const SimTime next = std::min(t_min, t_global);
    if (next == kSimTimeMax || next > horizon) break;

    // Conservative window: every event in [t_min, t_min + lookahead - 1]
    // can only produce cross-partition arrivals strictly after the window
    // (arrival >= event time + lookahead), so partitions run concurrently.
    SimTime w_end = horizon;
    if (has_remote_links_ && t_min != kSimTimeMax) {
      const SimTime clip = (t_min > kSimTimeMax - lookahead_)
                               ? kSimTimeMax
                               : t_min + lookahead_ - 1;
      w_end = std::min(w_end, clip);
    }
    w_end = std::min(w_end, t_global);

    ParallelWindow(w_end);

    // ParallelWindow returned with every worker parked at the barrier: the
    // coordinator holds the serial phase until the next window launches.
    SerialPhaseScope serial(kEngineSerialPhase);
    if (w_end != kSimTimeMax) {
      // Barrier clock alignment: work triggered at the barrier (credit
      // releases, global timers) is stamped with the window end, never a
      // partition's stale last-event time.
      for (Simulator* s : sims_) s->AdvanceTo(w_end);
    }
    DrainMailbox();
    if (t_global == w_end) FireGlobalTimersAt(w_end);
  }
  return ExecutedEvents() - before;
}

void PdesEngine::RunShard(uint32_t executor, SimTime w_end) {
  // Fixed partition -> worker mapping: partition p runs on executor
  // p % worker_count_, independent of load, every window.
  const uint32_t n = partition_count();
  for (uint32_t p = executor; p < n; p += worker_count_) {
    sims_[p]->RunUntil(w_end);
  }
}

void PdesEngine::ParallelWindow(SimTime w_end) {
  if (worker_count_ <= 1) {
    RunShard(0, w_end);
    return;
  }
  EnsureWorkers();
  {
    MutexLock l(pool_mu_);
    window_end_ = w_end;
    pending_workers_ = static_cast<uint32_t>(workers_.size());
    ++generation_;
  }
  cv_work_.NotifyAll();
  RunShard(0, w_end);  // the coordinator doubles as executor 0
  MutexLock l(pool_mu_);
  while (pending_workers_ != 0) cv_done_.Wait(pool_mu_);
}

void PdesEngine::EnsureWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(worker_count_ - 1);
  for (uint32_t e = 1; e < worker_count_; ++e) {
    workers_.emplace_back([this, e] { WorkerMain(e); });
  }
}

void PdesEngine::WorkerMain(uint32_t executor) {
  uint64_t seen = 0;
  for (;;) {
    SimTime w_end;
    {
      MutexLock l(pool_mu_);
      while (!shutdown_ && generation_ == seen) cv_work_.Wait(pool_mu_);
      if (shutdown_) return;
      seen = generation_;
      w_end = window_end_;
    }
    RunShard(executor, w_end);
    {
      MutexLock l(pool_mu_);
      if (--pending_workers_ == 0) cv_done_.NotifyOne();
    }
  }
}

void PdesEngine::PostRemote(net::Channel* channel, SimTime arrival,
                            dataflow::StreamElement element, bool bypass) {
  Mail m;
  m.kind = bypass ? Mail::Kind::kBypass : Mail::Kind::kElement;
  m.channel = channel;
  m.arrival = arrival;
  m.element = std::move(element);
  Lane& ln = lane(channel->sender_partition(), channel->receiver_partition());
  {
    MutexLock l(ln.mu);
    ln.mail.push_back(std::move(m));
  }
  mail_posted_.fetch_add(1, std::memory_order_relaxed);
}

void PdesEngine::PostRemoteCredit(net::Channel* channel, uint32_t credits) {
  // Credits travel the reverse lane: posted by the channel's receiver
  // partition, consumed by its sender partition. Consecutive credits for the
  // same channel coalesce (replay applies them as one batch; the effect is
  // identical and the coalescing depends only on deterministic post order).
  Lane& ln = lane(channel->receiver_partition(), channel->sender_partition());
  {
    MutexLock l(ln.mu);
    if (!ln.mail.empty() && ln.mail.back().kind == Mail::Kind::kCredit &&
        ln.mail.back().channel == channel) {
      ln.mail.back().credits += credits;
      return;
    }
    Mail m;
    m.kind = Mail::Kind::kCredit;
    m.channel = channel;
    m.credits = credits;
    ln.mail.push_back(std::move(m));
  }
  mail_posted_.fetch_add(1, std::memory_order_relaxed);
}

bool PdesEngine::DrainMailboxOnce() {
  // Canonical replay order — sender-major, receiver-minor, FIFO within a
  // lane — fixes the receiver-side insertion sequence of every replayed
  // arrival, realizing the (timestamp, insertion seq, partition id) merge
  // rule regardless of which OS thread produced the mail.
  bool any = false;
  const uint32_t n = partition_count();
  std::vector<Mail> batch;
  for (uint32_t from = 0; from < n; ++from) {
    for (uint32_t to = 0; to < n; ++to) {
      Lane& ln = lane(from, to);
      {
        MutexLock l(ln.mu);
        batch.swap(ln.mail);
      }
      for (Mail& m : batch) {
        any = true;
        ++mail_drained_;
        switch (m.kind) {
          case Mail::Kind::kElement:
            m.channel->AcceptRemote(m.arrival, std::move(m.element), false);
            break;
          case Mail::Kind::kBypass:
            m.channel->AcceptRemote(m.arrival, std::move(m.element), true);
            break;
          case Mail::Kind::kCredit:
            m.channel->ApplyRemoteCredits(m.credits);
            break;
        }
      }
      batch.clear();
    }
  }
  return any;
}

void PdesEngine::DrainMailbox() {
  // Credit replay can trigger fresh transmissions (new mail), so loop until
  // a full pass finds every lane dry.
  while (DrainMailboxOnce()) {
  }
}

}  // namespace drrs::sim
