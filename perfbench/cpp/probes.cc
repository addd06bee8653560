// Public-API probes: each drives one layer through the calls the engine
// makes on it, with no other layer in the loop, and returns host ns per
// operation. Inputs are sized by the caller to the workload's own counts.

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "dataflow/key_space.h"
#include "net/channel.h"
#include "probes.h"
#include "sim/simulator.h"
#include "state/keyed_state.h"

namespace drrs::perfbench {
namespace {

/// A self-rescheduling process: `depth` of them keep the event queue at the
/// engine's typical population (one pending event per task).
struct QueueProcess {
  sim::Simulator* sim = nullptr;
  Rng* rng = nullptr;
  uint64_t* remaining = nullptr;

  static void Fire(void* arg) {
    auto* self = static_cast<QueueProcess*>(arg);
    if (*self->remaining == 0) return;
    --*self->remaining;
    self->sim->ScheduleRawAfter(
        static_cast<sim::SimTime>(1 + self->rng->NextBounded(1000)), &Fire,
        self);
  }
};

/// Drains every delivered batch, releasing one credit per element as a task
/// does.
class DrainReceiver : public net::ChannelReceiver {
 public:
  void OnBatchAvailable(net::Channel* channel, size_t /*appended*/) override {
    while (channel->HasInput()) {
      checksum_ += channel->PopInput().value;
      ++received_;
    }
  }
  void OnControlBypass(net::Channel* /*channel*/,
                       const dataflow::StreamElement& /*element*/) override {}
  uint64_t received() const { return received_; }
  int64_t checksum() const { return checksum_; }

 private:
  uint64_t received_ = 0;
  int64_t checksum_ = 0;
};

}  // namespace

double ProbeQueueNsPerEvent(uint64_t events, uint32_t depth) {
  if (events == 0) return 0;
  sim::Simulator sim;
  Rng rng(1);
  uint64_t remaining = events;
  std::vector<QueueProcess> procs(std::max<uint32_t>(depth, 1));
  const int64_t t0 = NowNs();
  for (QueueProcess& p : procs) {
    p = QueueProcess{&sim, &rng, &remaining};
    sim.ScheduleRawAt(0, &QueueProcess::Fire, &p);
  }
  sim.RunUntilIdle();
  return static_cast<double>(NowNs() - t0) /
         static_cast<double>(sim.executed_events());
}

double ProbeChannelNsPerRecord(uint64_t records) {
  if (records == 0) return 0;
  sim::Simulator sim;
  DrainReceiver receiver;
  net::NetworkConfig config;
  net::Channel channel(&sim, config, 0, 1, &receiver);
  const size_t burst = config.output_buffer_capacity / 2;
  uint64_t sent = 0;
  const int64_t t0 = NowNs();
  while (sent < records) {
    const uint64_t n = std::min<uint64_t>(burst, records - sent);
    for (uint64_t i = 0; i < n; ++i) {
      dataflow::StreamElement e;
      e.key = sent + i;
      e.value = static_cast<int64_t>(sent + i);
      e.payload_bytes = 100;
      channel.Push(std::move(e));
    }
    sent += n;
    sim.RunUntilIdle();
  }
  const int64_t elapsed = NowNs() - t0;
  if (receiver.received() != records) return -1;  // lost records: a bug
  return static_cast<double>(elapsed) / static_cast<double>(records);
}

double ProbeStateNsPerUpdate(uint64_t updates, uint64_t keys, double skew,
                             uint64_t seed) {
  if (updates == 0 || keys == 0) return 0;
  dataflow::KeySpace key_space(128);
  state::KeyedStateBackend backend(key_space.num_key_groups());
  for (uint32_t kg = 0; kg < key_space.num_key_groups(); ++kg) {
    backend.AcquireKeyGroup(kg);
  }
  ZipfSampler sampler(keys, skew, seed);
  std::vector<dataflow::KeyT> drawn(updates);
  for (auto& k : drawn) k = sampler.Sample();
  const int64_t t0 = NowNs();
  for (dataflow::KeyT key : drawn) {
    state::StateCell* cell =
        backend.GetOrCreate(key_space.KeyGroupOf(key), key);
    cell->counter += 1;
    cell->sum += static_cast<int64_t>(key);
    cell->RecomputeBytes();
  }
  const int64_t elapsed = NowNs() - t0;
  if (backend.TotalKeys() == 0) return -1;
  return static_cast<double>(elapsed) / static_cast<double>(updates);
}

}  // namespace drrs::perfbench
