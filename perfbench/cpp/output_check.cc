#include "output_check.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/hash.h"
#include "dataflow/operator.h"

namespace drrs::perfbench {
namespace {

/// Forwards to the task's context and logs every emitted record.
class CaptureContext : public dataflow::OperatorContext {
 public:
  CaptureContext(dataflow::OperatorContext* inner, OutputLog* log)
      : inner_(inner), log_(log) {}

  void Emit(const dataflow::StreamElement& record) override {
    log_->outputs.push_back({record.key, record.event_time, record.value});
    inner_->Emit(record);
  }
  state::KeyedStateBackend* state() override { return inner_->state(); }
  sim::SimTime now() const override { return inner_->now(); }
  sim::SimTime watermark() const override { return inner_->watermark(); }
  uint32_t subtask_index() const override { return inner_->subtask_index(); }

 private:
  dataflow::OperatorContext* inner_;
  OutputLog* log_;
};

class CaptureOperator : public dataflow::Operator {
 public:
  CaptureOperator(std::unique_ptr<dataflow::Operator> inner, OutputLog* log)
      : inner_(std::move(inner)), log_(log) {}

  void Open(dataflow::OperatorContext* ctx) override {
    CaptureContext c(ctx, log_);
    inner_->Open(&c);
  }
  void ProcessRecord(const dataflow::StreamElement& record,
                     dataflow::OperatorContext* ctx) override {
    CaptureContext c(ctx, log_);
    inner_->ProcessRecord(record, &c);
  }
  void ProcessWatermark(sim::SimTime watermark,
                        dataflow::OperatorContext* ctx) override {
    CaptureContext c(ctx, log_);
    inner_->ProcessWatermark(watermark, &c);
  }

 private:
  std::unique_ptr<dataflow::Operator> inner_;
  OutputLog* log_;
};

void CountMissing(Comparison* c, dataflow::KeyT key, sim::SimTime t) {
  c->missing_keys.insert(key);
  if (c->missing == 0 || t < c->missing_first) c->missing_first = t;
  if (c->missing == 0 || t > c->missing_last) c->missing_last = t;
  ++c->missing;
}

/// Outputs grouped by key, each group in emission order.
std::map<dataflow::KeyT, std::vector<Output>> ByKey(const OutputLog& log) {
  std::map<dataflow::KeyT, std::vector<Output>> by_key;
  for (const Output& o : log.outputs) by_key[o.key].push_back(o);
  return by_key;
}

}  // namespace

workloads::WorkloadSpec WithCapture(const workloads::WorkloadSpec& spec,
                                    OutputLog* log) {
  workloads::WorkloadSpec out = spec;
  dataflow::OperatorSpec* op = out.graph.mutable_operator(out.scaled_op);
  dataflow::OperatorFactory inner = op->factory;
  op->factory = [inner, log]() -> std::unique_ptr<dataflow::Operator> {
    return std::make_unique<CaptureOperator>(inner(), log);
  };
  return out;
}

Comparison ComparePanes(const OutputLog& run, const OutputLog& reference) {
  using Pane = std::pair<dataflow::KeyT, sim::SimTime>;
  std::map<Pane, int64_t> ref;
  for (const Output& o : reference.outputs) ref.emplace(Pane{o.key, o.event_time}, o.value);
  std::map<Pane, int64_t> got;
  Comparison c;
  c.reference = ref.size();
  for (const Output& o : run.outputs) {
    if (!got.emplace(Pane{o.key, o.event_time}, o.value).second) ++c.extra;
  }
  for (const auto& [pane, value] : ref) {
    auto it = got.find(pane);
    if (it == got.end()) {
      CountMissing(&c, pane.first, pane.second);
    } else if (it->second != value) {
      ++c.different;
    }
  }
  for (const auto& [pane, value] : got) {
    if (ref.count(pane) == 0) ++c.extra;
  }
  return c;
}

Comparison CompareSequences(const OutputLog& run, const OutputLog& reference) {
  const auto ref = ByKey(reference);
  const auto got = ByKey(run);
  Comparison c;
  c.reference = reference.outputs.size();
  for (const auto& [key, want] : ref) {
    auto it = got.find(key);
    const size_t have = it == got.end() ? 0 : it->second.size();
    for (size_t i = 0; i < want.size(); ++i) {
      if (i >= have) {
        CountMissing(&c, key, want[i].event_time);
      } else if (it->second[i].value != want[i].value ||
                 it->second[i].event_time != want[i].event_time) {
        ++c.different;
      }
    }
    if (have > want.size()) c.extra += have - want.size();
  }
  for (const auto& [key, outputs] : got) {
    if (ref.count(key) == 0) c.extra += outputs.size();
  }
  return c;
}

uint64_t Fingerprint(const OutputLog& log) {
  uint64_t fp = log.outputs.size();
  for (const auto& [key, outputs] : ByKey(log)) {
    uint64_t h = HashKey(key);
    for (const Output& o : outputs) {
      h = HashKey(h ^ HashKey(static_cast<uint64_t>(o.event_time)) ^
                  (HashKey(static_cast<uint64_t>(o.value)) << 1));
    }
    fp = HashKey(fp ^ h);
  }
  return fp;
}

}  // namespace drrs::perfbench
