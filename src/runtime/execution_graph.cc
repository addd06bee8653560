#include "runtime/execution_graph.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "runtime/checkpoint.h"
#include "sim/partition.h"

namespace drrs::runtime {

using dataflow::EdgeSpec;
using dataflow::OperatorId;
using dataflow::OperatorSpec;
using dataflow::Partitioning;

ExecutionGraph::ExecutionGraph(sim::Simulator* sim, dataflow::JobGraph job,
                               EngineConfig config, metrics::MetricsHub* hub)
    : sim_(sim),
      job_(std::move(job)),
      config_(std::move(config)),
      hub_(hub),
      key_space_(job_.num_key_groups()) {}

ExecutionGraph::~ExecutionGraph() = default;

void ExecutionGraph::AttachEngine(sim::PdesEngine* engine,
                                  uint64_t base_seed) {
  DRRS_CHECK(!built_) << "AttachEngine must precede Build";
  DRRS_CHECK(engine != nullptr);
  engine_ = engine;
  engine_seed_ = base_seed;
}

void ExecutionGraph::set_partition_override(
    std::vector<uint32_t> op_partition) {
  DRRS_CHECK(!built_ && engine_ != nullptr);
  op_partition_ = std::move(op_partition);
  partition_override_ = true;
}

metrics::MetricsHub* ExecutionGraph::hub_shard(uint32_t p) {
  DRRS_CHECK(p < partition_count_);
  return p == 0 ? hub_ : hub_shards_[p - 1].get();
}

void ExecutionGraph::MergeHubShards() {
  // Post-run merge point: RunExperiment calls this after the engine loop
  // returned, i.e. with every worker parked — the serial-phase claim below
  // is what licenses the otherwise-unsynchronized shard reads.
  SerialPhaseScope serial(kEngineSerialPhase);
  for (auto& shard : hub_shards_) hub_->MergeFrom(*shard);
}

void ExecutionGraph::ComputePartitions() {
  const size_t n = job_.operators().size();
  if (engine_ == nullptr) {
    op_partition_.assign(n, 0);
    partition_count_ = 1;
    return;
  }
  if (partition_override_) {
    DRRS_CHECK(op_partition_.size() == n)
        << "partition override must cover every operator";
    uint32_t max_p = 0;
    for (uint32_t p : op_partition_) max_p = std::max(max_p, p);
    partition_count_ = max_p + 1;
    return;
  }
  // Union-find over job edges: operators that exchange data share a logical
  // process, so only deliberately disjoint pipelines ever cross partitions.
  std::vector<uint32_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<uint32_t>(i);
  std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const EdgeSpec& e : job_.edges()) {
    uint32_t a = find(e.from);
    uint32_t b = find(e.to);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Label components in min-op-id order: component ids — and therefore the
  // whole partitioning — are a pure function of the job graph.
  std::vector<int32_t> comp_of(n, -1);
  std::vector<uint64_t> comp_weight;  // total parallelism per component
  for (OperatorId op = 0; op < n; ++op) {
    uint32_t root = find(op);
    if (comp_of[root] < 0) {
      comp_of[root] = static_cast<int32_t>(comp_weight.size());
      comp_weight.push_back(0);
    }
    comp_of[op] = comp_of[root];
    comp_weight[comp_of[op]] += job_.operators()[op].parallelism;
  }
  const uint32_t ncomp = static_cast<uint32_t>(comp_weight.size());
  constexpr uint32_t kMaxPartitions = 64;
  std::vector<uint32_t> comp_to_partition(ncomp);
  if (ncomp <= kMaxPartitions) {
    for (uint32_t c = 0; c < ncomp; ++c) comp_to_partition[c] = c;
    partition_count_ = ncomp;
  } else {
    // Balance heuristic: components in label order land on the lightest
    // bin (ties -> lowest bin id). Deterministic greedy packing.
    std::vector<uint64_t> bin_weight(kMaxPartitions, 0);
    for (uint32_t c = 0; c < ncomp; ++c) {
      uint32_t best = 0;
      for (uint32_t b = 1; b < kMaxPartitions; ++b) {
        if (bin_weight[b] < bin_weight[best]) best = b;
      }
      comp_to_partition[c] = best;
      bin_weight[best] += comp_weight[c];
    }
    partition_count_ = kMaxPartitions;
  }
  op_partition_.resize(n);
  for (OperatorId op = 0; op < n; ++op) {
    op_partition_[op] = comp_to_partition[comp_of[op]];
  }
}

sim::Simulator* ExecutionGraph::sim_for(OperatorId op) {
  return engine_ == nullptr ? sim_
                            : engine_->partition_sim(op_partition_[op]);
}

metrics::MetricsHub* ExecutionGraph::hub_for(OperatorId op) {
  const uint32_t p = op_partition_.empty() ? 0 : op_partition_[op];
  return p == 0 ? hub_ : hub_shards_[p - 1].get();
}

std::unique_ptr<Task> ExecutionGraph::MakeTask(OperatorId op,
                                               uint32_t subtask) {
  const OperatorSpec& spec = job_.operators()[op];
  auto id = static_cast<dataflow::InstanceId>(tasks_.size());
  sim::Simulator* sim = sim_for(op);
  metrics::MetricsHub* hub = hub_for(op);
  std::unique_ptr<Task> task;
  if (spec.is_source) {
    auto gen = spec.source_factory(subtask, spec.parallelism);
    task = std::make_unique<SourceTask>(
        sim, spec, id, op, subtask, &key_space_, hub,
        config_.check_invariants, std::move(gen), config_.source_timing);
  } else {
    task = std::make_unique<Task>(sim, spec, id, op, subtask, &key_space_,
                                  hub, config_.check_invariants);
    if (spec.is_stateful) task->InitState(job_.num_key_groups());
  }
  task->set_checkpoint_coordinator(checkpoint_coordinator_);
  return task;
}

void ExecutionGraph::set_checkpoint_coordinator(CheckpointCoordinator* c) {
  checkpoint_coordinator_ = c;
  for (auto& t : tasks_) t->set_checkpoint_coordinator(c);
}

Status ExecutionGraph::Build() {
  DRRS_CHECK(!built_);
  DRRS_RETURN_NOT_OK(job_.Validate());
  built_ = true;

  ComputePartitions();
  if (engine_ != nullptr) {
    engine_->SetPartitionCount(partition_count_, engine_seed_);
    for (uint32_t p = 1; p < partition_count_; ++p) {
      hub_shards_.push_back(std::make_unique<metrics::MetricsHub>());
    }
  }

  instances_.resize(job_.operators().size());
  for (OperatorId op = 0; op < job_.operators().size(); ++op) {
    const OperatorSpec& spec = job_.operators()[op];
    for (uint32_t s = 0; s < spec.parallelism; ++s) {
      auto task = MakeTask(op, s);
      instances_[op].push_back(task.get());
      tasks_.push_back(std::move(task));
    }
  }

  for (const EdgeSpec& e : job_.edges()) {
    uint32_t down_p = job_.operators()[e.to].parallelism;
    std::vector<dataflow::InstanceId> assignment =
        key_space_.UniformAssignment(down_p);
    for (Task* up : instances_[e.from]) {
      OutputEdge edge;
      edge.to_op = e.to;
      edge.partitioning = e.partitioning;
      if (e.partitioning == Partitioning::kHash) {
        edge.routing = dataflow::RoutingTable(assignment);
      }
      for (Task* down : instances_[e.to]) {
        edge.channels.push_back(CreateChannel(up, down));
      }
      up->AddOutputEdge(std::move(edge));
    }
  }

  // Initial key-group ownership for stateful operators.
  for (OperatorId op = 0; op < job_.operators().size(); ++op) {
    const OperatorSpec& spec = job_.operators()[op];
    if (!spec.is_stateful) continue;
    std::vector<dataflow::InstanceId> assignment =
        key_space_.UniformAssignment(spec.parallelism);
    for (uint32_t kg = 0; kg < job_.num_key_groups(); ++kg) {
      instances_[op][assignment[kg]]->state()->AcquireKeyGroup(kg);
    }
  }
  return Status::OK();
}

void ExecutionGraph::Start() {
  for (SourceTask* s : sources()) s->Start();
}

std::vector<SourceTask*> ExecutionGraph::sources() {
  std::vector<SourceTask*> out;
  for (auto& t : tasks_) {
    if (t->spec().is_source) out.push_back(static_cast<SourceTask*>(t.get()));
  }
  return out;
}

uint64_t ExecutionGraph::TotalStateBytes() {
  uint64_t total = 0;
  for (auto& t : tasks_) {
    if (t->state() != nullptr) total += t->state()->TotalBytes();
  }
  return total;
}

OperatorId ExecutionGraph::OperatorByName(const std::string& name) const {
  for (OperatorId op = 0; op < job_.operators().size(); ++op) {
    if (job_.operators()[op].name == name) return op;
  }
  DRRS_CHECK(false) << "unknown operator: " << name;
  return 0;
}

std::vector<Task*> ExecutionGraph::PredecessorTasksOf(OperatorId op) {
  std::vector<Task*> out;
  for (OperatorId pred : job_.PredecessorsOf(op)) {
    for (Task* t : instances_[pred]) out.push_back(t);
  }
  return out;
}

OutputEdge* ExecutionGraph::FindEdgeTo(Task* pred, OperatorId op) {
  for (OutputEdge& e : pred->output_edges()) {
    if (e.to_op == op) return &e;
  }
  return nullptr;
}

net::Channel* ExecutionGraph::CreateChannel(Task* from, Task* to) {
  // The channel lives on the sender's simulator (output cache, transmit
  // events); when the endpoints sit on different logical processes it is
  // additionally bound to the engine mailbox, which also folds the link
  // latency into the conservative lookahead.
  sim::Simulator* sender_sim = sim_for(from->op());
  channels_.push_back(std::make_unique<net::Channel>(
      sender_sim, config_.net, from->id(), to->id(), to));
  net::Channel* ch = channels_.back().get();
  ch->set_sender(from);
  const uint32_t pf = partition_of(from->op());
  const uint32_t pt = partition_of(to->op());
  if (pf != pt) {
    ch->BindRemote(engine_, pf, pt, sim_for(to->op()));
    engine_->NoteCrossPartitionLatency(config_.net.base_latency);
  }
  to->AddInputChannel(ch);
  return ch;
}

std::vector<Task*> ExecutionGraph::AddInstances(OperatorId op,
                                                uint32_t count) {
  DRRS_CHECK(built_);
  const OperatorSpec& spec = job_.operators()[op];
  DRRS_CHECK(!spec.is_source && !spec.is_sink);
  std::vector<Task*> added;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t subtask = static_cast<uint32_t>(instances_[op].size());
    auto owned = MakeTask(op, subtask);
    Task* fresh = owned.get();
    instances_[op].push_back(fresh);
    tasks_.push_back(std::move(owned));
    added.push_back(fresh);

    // Wire channels from every predecessor instance; the new channel slots
    // line up with the new subtask index in each predecessor's edge.
    for (OperatorId pred_op : job_.PredecessorsOf(op)) {
      for (Task* pred : instances_[pred_op]) {
        OutputEdge* edge = FindEdgeTo(pred, op);
        DRRS_CHECK(edge != nullptr);
        DRRS_CHECK(edge->channels.size() == subtask);
        pred->AddOutputChannel(edge, CreateChannel(pred, fresh));
      }
    }

    // Wire channels to every successor instance, copying routing from
    // subtask 0 so the new deployment is consistent (Section IV-B).
    Task* reference = instances_[op][0];
    for (const OutputEdge& ref_edge : reference->output_edges()) {
      OutputEdge edge;
      edge.to_op = ref_edge.to_op;
      edge.partitioning = ref_edge.partitioning;
      edge.routing = ref_edge.routing;
      for (Task* down : instances_[ref_edge.to_op]) {
        edge.channels.push_back(CreateChannel(fresh, down));
      }
      fresh->AddOutputEdge(std::move(edge));
    }
  }
  return added;
}

net::Channel* ExecutionGraph::GetOrCreateScalingChannel(Task* from, Task* to) {
  auto key = std::make_pair(from->id(), to->id());
  auto it = scaling_channels_.find(key);
  if (it != scaling_channels_.end()) return it->second;
  net::Channel* ch = CreateChannel(from, to);
  ch->set_scaling_path(true);
  scaling_channels_[key] = ch;
  return ch;
}

net::Channel* ExecutionGraph::FindScalingChannel(dataflow::InstanceId from,
                                                 dataflow::InstanceId to) {
  auto it = scaling_channels_.find(std::make_pair(from, to));
  return it == scaling_channels_.end() ? nullptr : it->second;
}

ExecutionGraph::DeliveryStats ExecutionGraph::TotalDeliveryStats() const {
  DeliveryStats stats;
  for (const auto& ch : channels_) {
    stats.elements += ch->delivered_elements();
    stats.batches += ch->delivered_batches();
    stats.max_batch = std::max(stats.max_batch, ch->max_batch_size());
  }
  return stats;
}

}  // namespace drrs::runtime
