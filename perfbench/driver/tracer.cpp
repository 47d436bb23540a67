#include "tracer.h"

#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

struct OpInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<OpInfo, kOpCount> kOps = {{
    {"core.file_add", "core"},
    {"core.file_discard", "core"},
    {"core.advance_to", "core"},
    {"core.file_confirm", "core"},
    {"core.sector_register", "core"},
    {"core.corrupt", "core"},
    {"core.settle_all_rent", "core"},
    {"traffic.on_epoch", "traffic"},
    {"traffic.inject", "traffic"},
    {"sim.send", "sim"},
    {"sim.pop_due", "sim"},
    {"adversary.on_epoch", "adversary"},
}};

}  // namespace

const char* op_name(Op op) { return kOps[static_cast<std::size_t>(op)].name; }

const char* op_layer(Op op) {
  return kOps[static_cast<std::size_t>(op)].layer;
}

void Tracer::open(std::string name) {
  open_start_ = Clock::now();
  open_parent_ = static_cast<std::int64_t>(records_.size());
  Record parent;
  parent.name = std::move(name);
  parent.start = at(open_start_);
  records_.push_back(std::move(parent));
}

void Tracer::close() {
  const Clock::time_point end = Clock::now();
  records_[static_cast<std::size_t>(open_parent_)].end = at(end);
  parents_wall_s_ += std::chrono::duration<double>(end - open_start_).count();
  for (std::size_t i = 0; i < kOpCount; ++i) {
    Fold& fold = folds_[i];
    if (fold.calls == 0) continue;
    Record child;
    child.name = kOps[i].name;
    child.parent = open_parent_;
    child.start = at(fold.start);
    child.end = at(fold.end);
    child.calls = fold.calls;
    child.busy_s = static_cast<double>(fold.busy_ns) * 1e-9;
    records_.push_back(std::move(child));
    fold = Fold{};
  }
  open_parent_ = -1;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t id = 0; id < records_.size(); ++id) {
    const Record& r = records_[id];
    JsonObject line;
    line.str("name", r.name)
        .u64("id", id)
        .raw("parent", std::to_string(r.parent))
        .num("start", r.start)
        .num("end", r.end);
    if (r.parent >= 0) line.u64("calls", r.calls).num("busy_s", r.busy_s);
    std::fprintf(out, "%s\n", line.str().c_str());
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
