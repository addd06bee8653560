#include "scaling/stop_restart.h"

#include <deque>
#include <map>
#include <utility>

#include "common/logging.h"

namespace drrs::scaling {

using runtime::Task;

StopRestartStrategy::StopRestartStrategy(runtime::ExecutionGraph* graph,
                                         Options options)
    : ScalingStrategy(graph), options_(options) {}

Status StopRestartStrategy::StartScale(const ScalePlan& plan) {
  DRRS_RETURN_NOT_OK(ValidatePlan(plan));
  if (!done()) return Status::FailedPrecondition("scaling already in progress");
  core_.BeginScale();
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordSignalInjection(0, now);

  // Global halt.
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < graph_->task_count(); ++i) {
    Task* t = graph_->task(static_cast<dataflow::InstanceId>(i));
    t->Freeze();
    if (t->state() != nullptr) total_bytes += t->state()->TotalBytes();
  }
  sim::SimTime serialize = static_cast<sim::SimTime>(
      static_cast<double>(total_bytes) / options_.state_rate_bytes_per_us);
  last_downtime_ = 2 * serialize + options_.redeploy_cost;

  ScalePlan captured = plan;
  graph_->sim()->ScheduleAfter(last_downtime_, [this, captured]() {
    Restore(captured);
  });
  return Status::OK();
}

void StopRestartStrategy::Restore(const ScalePlan& plan) {
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordFirstMigration(0, now);
  EnsureInstances(plan);

  std::map<dataflow::KeyGroupId, uint32_t> moved;  // kg -> new subtask
  for (const Migration& m : plan.migrations) moved[m.key_group] = m.to;

  // Move state directly between backends (part of the modeled downtime).
  for (const Migration& m : plan.migrations) {
    Task* src = graph_->instance(plan.op, m.from);
    Task* dst = graph_->instance(plan.op, m.to);
    if (!src->state()->OwnsKeyGroup(m.key_group)) continue;
    dst->state()->InstallKeyGroup(src->state()->ExtractKeyGroup(m.key_group));
    hub_->scaling().RecordStateMigrated(0, m.key_group, now);
  }

  // A real restart replays in-flight data from the checkpoint; the frozen
  // simulation equivalent is to reassign everything that was en route to the
  // old owners. The downtime exceeds the wire latency, so all transmissions
  // have landed in input caches by now; what remains sits in the
  // predecessors' output caches.
  const auto& key_space = graph_->key_space();

  // (a) Records already in the old owners' input caches are moved, in FIFO
  //     order, onto the owner's scaling rail as re-routed special events.
  //     The rails carry no state here, so no side watermark is seeded.
  for (Task* inst : graph_->instances_of(plan.op)) {
    for (net::Channel* ch : inst->input_channels()) {
      if (ch->scaling_path()) continue;
      // Kept elements keep their FIFO order, and so do the moved ones.
      ch->ExtractInput([&](dataflow::StreamElement& e) {
        if (e.kind != dataflow::ElementKind::kRecord) return false;
        auto it = moved.find(key_space.KeyGroupOf(e.key));
        if (it == moved.end()) return false;
        Task* to = graph_->instance(plan.op, it->second);
        if (to == inst) return false;
        dataflow::StreamElement r_el = std::move(e);
        r_el.rerouted = true;
        core_.rails()
            .Open(inst, to, /*seed_watermark=*/false)
            ->AppendInput(std::move(r_el));
        return true;
      });
    }
  }

  // (b) Records still cached at the predecessors are redirected to the new
  //     owners' channels, preserving order.
  for (Task* pred : graph_->PredecessorTasksOf(plan.op)) {
    runtime::OutputEdge* edge = graph_->FindEdgeTo(pred, plan.op);
    DRRS_CHECK(edge != nullptr);
    for (uint32_t s = 0; s < edge->channels.size(); ++s) {
      net::Channel* ch = edge->channels[s];
      auto cached = ch->ExtractFromOutput([&](const dataflow::StreamElement&
                                                  e) {
        if (e.kind != dataflow::ElementKind::kRecord) return false;
        auto it = moved.find(key_space.KeyGroupOf(e.key));
        return it != moved.end() && it->second != s;
      });
      for (dataflow::StreamElement& e : cached) {
        edge->channels[moved.at(key_space.KeyGroupOf(e.key))]->Push(
            std::move(e));
      }
    }
    // Restart with the new routing everywhere.
    BarrierInjector::UpdateRouting(edge, plan.migrations);
  }

  for (size_t i = 0; i < graph_->task_count(); ++i) {
    graph_->task(static_cast<dataflow::InstanceId>(i))->Unfreeze();
  }
  core_.rails().Reset();  // never seeded, nothing to release
  core_.EndScale();
}

}  // namespace drrs::scaling
