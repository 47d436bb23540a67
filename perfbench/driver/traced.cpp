// The traced run: a replay of the ScenarioRunner loop through public
// engine calls with a span around every call into a layer (core::Network,
// TrafficEngine, sim::NetModel, AdversaryStrategy). The replay issues the
// same calls in the same order as src/scenario/runner.cpp — the pattern of
// tests/scenario_test.cpp (MiniChurnMatchesDirectNetworkCalls) and
// bench/bench_retrieval.cpp — so its end state must equal that of an
// untraced fi::Session pass: same network fingerprint, same NetworkStats,
// same traffic report. perfbench/run.py runs that reference pass in its
// own process and discards the spans when the two differ.
//
// Supported phase kinds: idle, churn, corrupt_burst, rent_audit (the
// benchmark workloads use no others); every adversary action is applied.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "adversary/strategy.h"
#include "api/session.h"
#include "common.h"
#include "crypto/sha256.h"
#include "ledger/account.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/net_model.h"
#include "tracer.h"
#include "util/binary_io.h"
#include "util/checked.h"
#include "util/distributions.h"

namespace perfbench {

namespace {

namespace core = fi::core;
namespace scenario = fi::scenario;
namespace util = fi::util;
namespace adversary = fi::adversary;
using fi::ByteCount;
using fi::Time;
using fi::TokenAmount;

// Funding estimates, as ScenarioRunner::build_network computes them (the
// account layout and balances must match for the calls to succeed alike).
std::uint64_t planned_adds(const scenario::ScenarioSpec& spec) {
  std::uint64_t adds = spec.initial_files;
  for (const scenario::PhaseSpec& phase : spec.phases) {
    if (phase.kind == scenario::PhaseKind::churn) {
      adds = util::checked_add(
          adds, util::checked_mul(phase.adds_per_cycle, phase.cycles));
    }
  }
  return adds;
}

std::uint64_t planned_cycles(const scenario::ScenarioSpec& spec) {
  std::uint64_t cycles = 8;
  for (const scenario::PhaseSpec& phase : spec.phases) {
    cycles += phase.kind == scenario::PhaseKind::rent_audit
                  ? phase.periods * spec.params.rent_period_cycles
                  : phase.cycles;
  }
  return cycles;
}

class Replay {
 public:
  Replay(const scenario::ScenarioSpec& spec, Tracer& tracer)
      : spec_(spec),
        tr_(tracer),
        workload_rng_(spec.seed ^ scenario::kWorkloadSeedSalt) {
    for (const scenario::PhaseSpec& phase : spec_.phases) {
      switch (phase.kind) {
        case scenario::PhaseKind::idle:
        case scenario::PhaseKind::churn:
        case scenario::PhaseKind::corrupt_burst:
        case scenario::PhaseKind::rent_audit:
          break;
        default:
          throw std::runtime_error(
              std::string("traced replay does not support phase kind ") +
              scenario::phase_kind_name(phase.kind));
      }
    }
    for (std::size_t i = 0; i < spec_.adversaries.size(); ++i) {
      advs_.push_back(
          Adv{spec_.adversaries[i], adversary::make_strategy(spec_.adversaries[i]),
              util::Xoshiro256(spec_.seed ^ scenario::kAdversarySeedSalt ^
                               (0x9e3779b97f4a7c15ULL * (i + 1))),
              {},
              {}});
    }
  }

  /// Fleet registration, initial upload and confirmation.
  void setup() {
    tr_.open("setup");
    build_network();
    const ByteCount capacity =
        util::checked_mul(spec_.sector_units, spec_.params.min_capacity);
    for (std::uint64_t s = 0; s < spec_.sectors; ++s) {
      const auto id = tr_.call(Op::core_sector_register, [&] {
        return net_->sector_register(provider_, capacity);
      });
      if (!id.is_ok()) throw std::runtime_error("setup sector_register failed");
    }
    drain_transfers();
    for (std::uint64_t f = 0; f < spec_.initial_files; ++f) {
      if (!add_file()) break;
    }
    advance_confirming(net_->now() +
                       spec_.params.transfer_window(spec_.file_size_max) + 1);
    tr_.close();
  }

  /// Every phase, one parent span per proof cycle. Start-of-phase actions
  /// land in the phase's first epoch span, end-of-phase bookkeeping in its
  /// last; a phase without cycles gets a span of its own.
  void run() {
    for (const scenario::PhaseSpec& phase : spec_.phases) {
      const std::uint64_t cycles =
          phase.kind == scenario::PhaseKind::rent_audit
              ? util::checked_mul(phase.periods,
                                  spec_.params.rent_period_cycles)
              : phase.cycles;
      if (cycles == 0) {
        tr_.open("phase:" + phase.display_label());
        begin_phase(phase);
        end_phase(phase);
        tr_.close();
        continue;
      }
      for (std::uint64_t c = 0; c < cycles; ++c) {
        tr_.open("epoch");
        if (c == 0) begin_phase(phase);
        step_phase_cycle(phase);
        if (c + 1 == cycles) end_phase(phase);
        tr_.close();
      }
    }
  }

  [[nodiscard]] const core::Network& net() const { return *net_; }
  [[nodiscard]] const fi::traffic::TrafficEngine* traffic() const {
    return traffic_.get();
  }
  [[nodiscard]] const fi::sim::NetModel* netmodel() const {
    return netmodel_.get();
  }
  [[nodiscard]] std::uint64_t add_rejections() const { return add_rejections_; }
  [[nodiscard]] std::uint64_t confirm_rejections() const {
    return confirm_rejections_;
  }
  [[nodiscard]] std::size_t pending_max() const { return pending_max_; }
  [[nodiscard]] std::size_t in_flight_max() const { return in_flight_max_; }
  [[nodiscard]] std::uint64_t adversary_actions() const {
    return adversary_actions_;
  }
  [[nodiscard]] bool rent_conserved() const { return rent_conserved_; }

  /// Engine-side canonical encoding: ledger, network, traffic engine and
  /// net model, in the order ScenarioRunner::save_state writes them.
  void save(util::BinaryWriter& writer) const {
    ledger_.save(writer);
    net_->save(writer);
    if (traffic_ != nullptr) traffic_->save_state(writer);
    if (netmodel_ != nullptr) netmodel_->save_state(writer);
  }

 private:
  /// One configured adversary. Its counters are kept exactly as the
  /// runner keeps them because strategies read them back through the
  /// view (adaptive ones decide on them).
  struct Adv {
    adversary::AdversarySpec spec;
    std::unique_ptr<adversary::AdversaryStrategy> strategy;
    util::Xoshiro256 rng;
    adversary::AdversaryCounters counters;
    std::vector<core::SectorId> claimed;
  };

  void build_network() {
    const core::Params& p = spec_.params;
    const ByteCount capacity = util::checked_mul(spec_.sector_units, p.min_capacity);
    std::uint64_t total_sectors = spec_.sectors;
    for (const adversary::AdversarySpec& adv : spec_.adversaries) {
      if (adv.kind == adversary::StrategyKind::churn_griefer) {
        const std::uint64_t rounds = planned_cycles(spec_) / adv.period + 2;
        total_sectors = util::checked_add(
            total_sectors, util::checked_mul(adv.sectors, rounds));
      }
    }
    const TokenAmount per_sector =
        util::checked_add(p.sector_deposit(capacity), p.gas_per_task);
    provider_ = ledger_.create_account(util::checked_add(
        util::checked_mul(total_sectors, per_sector), 1'000'000'000ull));

    const std::uint64_t adds = planned_adds(spec_);
    const std::uint32_t cp = p.replica_count(spec_.effective_file_value());
    const TokenAmount upfront = util::checked_add(
        util::checked_mul(p.traffic_fee(spec_.file_size_max), cp),
        util::checked_mul(p.gas_per_task, 2));
    const TokenAmount per_cycle =
        util::checked_add(p.rent_per_cycle(spec_.file_size_max, cp),
                          util::checked_mul(p.gas_per_task, 2));
    const TokenAmount per_file = util::checked_add(
        upfront, util::checked_mul(per_cycle, planned_cycles(spec_)));

    TokenAmount traffic_budget = 0;
    if (spec_.traffic.enabled) {
      const fi::traffic::TrafficSpec& t = spec_.traffic;
      const TokenAmount kib = (spec_.file_size_max + 1023) / 1024;
      TokenAmount per_request = util::checked_add(
          p.gas_per_task, util::checked_mul(t.price_per_kib + 1, kib));
      if (t.defense_enabled) {
        per_request = util::checked_mul(per_request, t.defense_surge);
      }
      std::uint64_t requests = util::checked_mul(t.requests_per_cycle, 2);
      if (t.flash_duration > 0) {
        requests = util::checked_mul(requests, t.flash_multiplier);
      }
      for (const adversary::AdversarySpec& adv : spec_.adversaries) {
        if (adv.kind == adversary::StrategyKind::retrieval_ddos) {
          requests = util::checked_add(
              requests, util::checked_mul(adv.gang, adv.requests_per_epoch));
        }
      }
      requests = util::checked_add(requests, 64);
      traffic_budget = util::checked_mul(
          util::checked_mul(requests, per_request), planned_cycles(spec_));
    }
    client_ = ledger_.create_account(util::checked_add(
        util::checked_add(
            util::checked_mul(util::checked_add(adds, 1), per_file),
            traffic_budget),
        1'000'000'000ull));

    net_ = std::make_unique<core::Network>(p, ledger_, spec_.seed);
    net_->set_auto_prove(true);
    net_->set_workers(spec_.engine_workers);
    net_->subscribe([this](const core::Event& event) { on_event(event); });

    if (spec_.network.enabled) {
      netmodel_ = std::make_unique<fi::sim::NetModel>(
          spec_.network.to_net_config(), spec_.seed ^ scenario::kNetSeedSalt);
    }
    if (spec_.traffic.enabled) {
      std::uint64_t next_stream = spec_.traffic.streams;
      for (const adversary::AdversarySpec& adv : spec_.adversaries) {
        gang_base_.push_back(next_stream);
        if (adv.kind == adversary::StrategyKind::retrieval_ddos) {
          next_stream = util::checked_add(next_stream, adv.gang);
        }
      }
      traffic_ = std::make_unique<fi::traffic::TrafficEngine>(
          spec_.traffic, *net_, ledger_, client_,
          spec_.seed ^ scenario::kTrafficSeedSalt, next_stream);
    }
  }

  /// The runner's event listener: queue transfer requests, keep the
  /// live-file set in sync, attribute adversary outcomes.
  void on_event(const core::Event& event) {
    if (const auto* transfer =
            std::get_if<core::ReplicaTransferRequested>(&event)) {
      transfer_queue_.push_back(*transfer);
    } else if (const auto* lost = std::get_if<core::FileLost>(&event)) {
      std::size_t best = advs_.size();
      const std::uint32_t replicas =
          net_->allocations().replica_count(lost->file);
      for (core::ReplicaIndex r = 0; r < replicas; ++r) {
        const core::SectorId holder =
            net_->allocations().entry(lost->file, r).prev;
        const auto claim = sector_claims_.find(holder);
        if (claim != sector_claims_.end()) {
          best = std::min(best, claim->second);
        }
      }
      if (best < advs_.size()) {
        adversary::AdversaryCounters& c = advs_[best].counters;
        ++c.files_lost;
        c.compensation_paid =
            util::checked_add(c.compensation_paid, lost->compensated_now);
      }
      forget_file(lost->file);
    } else if (const auto* gone = std::get_if<core::FileDiscarded>(&event)) {
      forget_file(gone->file);
    } else if (const auto* failed = std::get_if<core::UploadFailed>(&event)) {
      forget_file(failed->file);
    } else if (const auto* corrupted =
                   std::get_if<core::SectorCorrupted>(&event)) {
      const auto claim = sector_claims_.find(corrupted->sector);
      if (claim != sector_claims_.end()) {
        adversary::AdversaryCounters& c = advs_[claim->second].counters;
        c.deposits_confiscated =
            util::checked_add(c.deposits_confiscated, corrupted->confiscated);
      }
    } else if (const auto* punished =
                   std::get_if<core::ProviderPunished>(&event)) {
      const auto claim = sector_claims_.find(punished->sector);
      if (claim != sector_claims_.end()) {
        adversary::AdversaryCounters& c = advs_[claim->second].counters;
        c.penalties_paid = util::checked_add(c.penalties_paid, punished->amount);
      }
    }
  }

  // ---- Transfers ----------------------------------------------------------

  void confirm_transfer(const core::ReplicaTransferRequested& req) {
    if (!net_->sectors().exists(req.to)) return;
    if (!refused_.empty() && refused_.contains(req.to)) {
      const auto claim = sector_claims_.find(req.to);
      if (claim != sector_claims_.end()) {
        ++advs_[claim->second].counters.transfers_refused;
      }
      return;
    }
    const auto owner = net_->sectors().at(req.to).owner;
    const fi::util::Status status = tr_.call(Op::core_file_confirm, [&] {
      return net_->file_confirm(owner, req.file, req.index, req.to, {},
                                std::nullopt);
    });
    if (!status.is_ok()) ++confirm_rejections_;
  }

  void deliver_messages() {
    fi::sim::TransferMessage msg;
    while (tr_.call(Op::sim_pop_due,
                    [&] { return netmodel_->pop_due(net_->now(), msg); })) {
      core::ReplicaTransferRequested req;
      req.file = msg.file;
      req.index = msg.index;
      req.from = msg.from_sector;
      req.to = msg.to_sector;
      req.client = msg.client;
      req.deadline = msg.deadline;
      confirm_transfer(req);
    }
  }

  void drain_transfers() {
    std::vector<core::ReplicaTransferRequested> batch;
    batch.swap(transfer_queue_);
    if (netmodel_ == nullptr) {
      for (const core::ReplicaTransferRequested& req : batch) {
        confirm_transfer(req);
      }
      return;
    }
    const Time now = net_->now();
    for (const core::ReplicaTransferRequested& req : batch) {
      fi::sim::TransferMessage msg;
      msg.file = req.file;
      msg.index = req.index;
      msg.from_sector = req.from;
      msg.to_sector = req.to;
      msg.client = req.client;
      msg.deadline = req.deadline;
      const ByteCount size =
          net_->file_exists(req.file) ? net_->file(req.file).size : 0;
      tr_.call(Op::sim_send, [&] { netmodel_->send(now, size, msg); });
    }
    in_flight_max_ = std::max(in_flight_max_, netmodel_->in_flight());
    deliver_messages();
  }

  void advance_to(Time t) {
    tr_.call(Op::core_advance_to, [&] { net_->advance_to(t); });
    pending_max_ = std::max(pending_max_, net_->pending_tasks());
  }

  void advance_confirming(Time horizon) {
    drain_transfers();
    while (true) {
      const Time next_task = net_->next_task_time();
      const Time next_msg = netmodel_ != nullptr
                                ? netmodel_->next_delivery_time()
                                : fi::kNoTime;
      const Time next = std::min(next_task, next_msg);
      if (next == fi::kNoTime || next > horizon) break;
      advance_to(next);
      drain_transfers();
    }
    advance_to(horizon);
    drain_transfers();
  }

  void advance_cycles(std::uint64_t cycles) {
    for (std::uint64_t c = 0; c < cycles; ++c) {
      if (!advs_.empty()) run_adversaries();
      if (traffic_ != nullptr) {
        tr_.call(Op::traffic_on_epoch,
                 [&] { traffic_->on_epoch(epoch_, live_files_); });
      }
      advance_confirming(net_->now() + spec_.params.proof_cycle);
      ++epoch_;
    }
  }

  // ---- Adversaries --------------------------------------------------------

  void run_adversaries() {
    for (std::size_t i = 0; i < advs_.size(); ++i) {
      Adv& adv = advs_[i];
      adversary::AdversaryView view(*net_, epoch_, adv.rng, live_files_,
                                    adv.claimed, adv.counters);
      tr_.call(Op::adversary_on_epoch, [&] { adv.strategy->on_epoch(view); });
      adversary_actions_ += view.actions().size();
      apply_actions(i, view.actions());
    }
  }

  void claim_sector(std::size_t index, core::SectorId sector) {
    const auto [it, inserted] = sector_claims_.emplace(sector, index);
    if (inserted) advs_[index].claimed.push_back(sector);
  }

  [[nodiscard]] bool attackable(core::SectorId s) const {
    if (!net_->sectors().exists(s)) return false;
    const core::SectorState state = net_->sectors().at(s).state;
    return state == core::SectorState::normal ||
           state == core::SectorState::disabled;
  }

  void apply_actions(std::size_t index,
                     std::span<const adversary::AdversaryAction> actions) {
    Adv& adv = advs_[index];
    const ByteCount capacity =
        util::checked_mul(spec_.sector_units, spec_.params.min_capacity);
    for (const adversary::AdversaryAction& action : actions) {
      if (const auto* a = std::get_if<adversary::CorruptSector>(&action)) {
        if (!attackable(a->sector)) continue;
        claim_sector(index, a->sector);
        adv.counters.replicas_attacked +=
            net_->allocations().count_with_prev(a->sector);
        ++adv.counters.sectors_corrupted;
        tr_.call(Op::core_corrupt, [&] { net_->corrupt_sector_now(a->sector); });
      } else if (const auto* w =
                     std::get_if<adversary::WithholdProofs>(&action)) {
        if (!attackable(w->sector)) continue;
        claim_sector(index, w->sector);
        ++adv.counters.proofs_withheld;
        tr_.call(Op::core_corrupt,
                 [&] { net_->corrupt_sector_physical(w->sector); });
      } else if (const auto* r = std::get_if<adversary::ResumeProofs>(&action)) {
        if (net_->sectors().exists(r->sector)) {
          tr_.call(Op::core_corrupt,
                   [&] { net_->restore_sector_physical(r->sector); });
        }
      } else if (const auto* f =
                     std::get_if<adversary::RefuseTransfers>(&action)) {
        if (!net_->sectors().exists(f->sector)) continue;
        claim_sector(index, f->sector);
        if (f->refuse) {
          refused_.insert(f->sector);
        } else {
          refused_.erase(f->sector);
        }
      } else if (const auto* e = std::get_if<adversary::ExitSector>(&action)) {
        if (!net_->sectors().exists(e->sector)) continue;
        if (net_->sector_disable(provider_, e->sector).is_ok()) {
          claim_sector(index, e->sector);
          ++adv.counters.sectors_exited;
        }
      } else if (const auto* j = std::get_if<adversary::JoinSectors>(&action)) {
        for (std::uint64_t n = 0; n < j->count; ++n) {
          const auto id = tr_.call(Op::core_sector_register, [&] {
            return net_->sector_register(provider_, capacity);
          });
          if (!id.is_ok()) break;
          claim_sector(index, id.value());
          ++adv.counters.sectors_joined;
        }
      } else if (const auto* h = std::get_if<adversary::HammerFile>(&action)) {
        if (traffic_ == nullptr) continue;
        tr_.call(Op::traffic_inject, [&] {
          traffic_->inject(gang_base_[index] + h->stream_offset, h->file,
                           h->requests);
        });
      } else if (const auto* s = std::get_if<adversary::RefuseServe>(&action)) {
        if (traffic_ == nullptr || !net_->sectors().exists(s->sector)) continue;
        claim_sector(index, s->sector);
        tr_.call(Op::traffic_inject,
                 [&] { traffic_->set_serve_refusal(s->sector, s->refuse); });
      }
    }
  }

  // ---- Workload -----------------------------------------------------------

  bool add_file() {
    const ByteCount span = spec_.file_size_max - spec_.file_size_min + 1;
    const ByteCount size =
        spec_.file_size_min + workload_rng_.uniform_below(span);
    const auto id = tr_.call(Op::core_file_add, [&] {
      return net_->file_add(client_,
                            {size, spec_.effective_file_value(), {}});
    });
    if (!id.is_ok()) {
      ++add_rejections_;
      return false;
    }
    live_positions_.emplace(id.value(), live_files_.size());
    live_files_.push_back(id.value());
    return true;
  }

  core::FileId sample_live_file() {
    while (!live_files_.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          workload_rng_.uniform_below(live_files_.size()));
      const core::FileId file = live_files_[idx];
      if (net_->file_exists(file)) return file;
      forget_file(file);
    }
    return core::kNoFile;
  }

  void forget_file(core::FileId file) {
    const auto it = live_positions_.find(file);
    if (it == live_positions_.end()) return;
    const std::size_t idx = it->second;
    const core::FileId moved = live_files_.back();
    live_files_[idx] = moved;
    live_positions_[moved] = idx;
    live_files_.pop_back();
    live_positions_.erase(file);
  }

  // ---- Phases -------------------------------------------------------------

  void begin_phase(const scenario::PhaseSpec& phase) {
    if (phase.kind != scenario::PhaseKind::corrupt_burst) return;
    std::vector<core::SectorId> normal = adversary::normal_sector_ids(*net_);
    const auto hits = util::shuffle_prefix(
        normal,
        static_cast<std::size_t>(std::llround(
            phase.corrupt_fraction * static_cast<double>(normal.size()))),
        workload_rng_);
    for (std::size_t i = 0; i < hits; ++i) {
      tr_.call(Op::core_corrupt, [&] { net_->corrupt_sector_now(normal[i]); });
    }
  }

  void step_phase_cycle(const scenario::PhaseSpec& phase) {
    if (phase.kind == scenario::PhaseKind::churn) {
      const std::uint64_t arrivals =
          phase.poisson_arrivals
              ? util::sample_poisson(workload_rng_,
                                     static_cast<double>(phase.adds_per_cycle))
              : phase.adds_per_cycle;
      for (std::uint64_t a = 0; a < arrivals; ++a) (void)add_file();
      const double expected =
          phase.discard_fraction * static_cast<double>(live_files_.size());
      const std::uint64_t discards =
          expected > 0.0 ? util::sample_poisson(workload_rng_, expected) : 0;
      for (std::uint64_t d = 0; d < discards; ++d) {
        const core::FileId file = sample_live_file();
        if (file == core::kNoFile) break;
        (void)tr_.call(Op::core_file_discard,
                       [&] { return net_->file_discard(client_, file); });
        forget_file(file);
      }
    }
    advance_cycles(1);
  }

  void end_phase(const scenario::PhaseSpec& phase) {
    if (phase.kind != scenario::PhaseKind::rent_audit) return;
    (void)tr_.call(Op::core_settle_all_rent,
                   [&] { return net_->settle_all_rent(); });
    const TokenAmount pool = ledger_.balance(net_->rent_pool_account());
    rent_conserved_ = rent_conserved_ &&
                      net_->total_rent_charged() == net_->total_rent_paid() + pool;
  }

  const scenario::ScenarioSpec& spec_;
  Tracer& tr_;
  fi::ledger::Ledger ledger_;
  std::unique_ptr<core::Network> net_;
  util::Xoshiro256 workload_rng_;
  fi::AccountId provider_ = fi::kNoAccount;
  fi::AccountId client_ = fi::kNoAccount;
  std::vector<core::ReplicaTransferRequested> transfer_queue_;
  std::vector<core::FileId> live_files_;
  std::unordered_map<core::FileId, std::size_t> live_positions_;
  std::vector<Adv> advs_;
  std::unordered_map<core::SectorId, std::size_t> sector_claims_;
  std::unordered_set<core::SectorId> refused_;
  std::uint64_t epoch_ = 0;
  std::unique_ptr<fi::sim::NetModel> netmodel_;
  std::unique_ptr<fi::traffic::TrafficEngine> traffic_;
  std::vector<std::uint64_t> gang_base_;

  std::uint64_t add_rejections_ = 0;
  std::uint64_t confirm_rejections_ = 0;
  std::size_t pending_max_ = 0;
  std::size_t in_flight_max_ = 0;
  std::uint64_t adversary_actions_ = 0;
  bool rent_conserved_ = true;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int run_traced(const Options& options) {
  auto spec_or = fi::Session::load_spec(
      options.config, fi::Session::OpenOptions{options.overrides, std::nullopt});
  if (!spec_or.is_ok()) {
    throw std::runtime_error("cannot load workload: " +
                             spec_or.status().to_string());
  }
  const scenario::ScenarioSpec spec = std::move(spec_or).value();

  Tracer tracer;
  Replay replay(spec, tracer);
  auto t0 = Clock::now();
  replay.setup();
  const double setup_s = seconds_since(t0);
  // Shares and scenario.self_s cover the epoch spans only, so what the
  // setup span spent is taken off the totals for them.
  std::array<Tracer::Totals, kOpCount> in_setup{};
  for (std::size_t i = 0; i < kOpCount; ++i) {
    in_setup[i] = tracer.totals(static_cast<Op>(i));
  }
  const double setup_wall_s = tracer.parents_wall_s();
  t0 = Clock::now();
  replay.run();
  const double run_s = seconds_since(t0);
  const double wall_s = tracer.parents_wall_s() - setup_wall_s;

  const fi::traffic::TrafficMetrics traffic =
      replay.traffic() != nullptr ? replay.traffic()->metrics()
                                  : fi::traffic::TrafficMetrics{};
  const std::string fingerprint = network_fingerprint(replay.net());

  // Snapshot / crypto layer on the replay's end state: the hash-only
  // writer state_hash() uses, a one-shot SHA-256 over the same bytes, and
  // the restore a fork performs.
  t0 = Clock::now();
  std::uint64_t snapshot_bytes = 0;
  {
    util::BinaryWriter hash_only(/*keep_bytes=*/false);
    replay.save(hash_only);
    (void)hash_only.digest();
    snapshot_bytes = hash_only.size();
  }
  const double save_s = seconds_since(t0);
  double sha_s = 0.0;
  double load_s = 0.0;
  {
    util::BinaryWriter buffered;
    replay.save(buffered);
    t0 = Clock::now();
    const fi::crypto::Digest digest = fi::crypto::sha256(buffered.data());
    sha_s = seconds_since(t0);
    (void)digest;

    // Restore as ScenarioRunner::resume does: the construction sequence
    // (two workload accounts, then the engine's system accounts) first,
    // then the ledger and engine state over it.
    t0 = Clock::now();
    fi::ledger::Ledger ledger;
    (void)ledger.create_account(0);
    (void)ledger.create_account(0);
    core::Network net(spec.params, ledger, spec.seed);
    util::BinaryReader reader(buffered.data());
    ledger.load(reader);
    const fi::util::Status loaded = net.load(reader);
    load_s = seconds_since(t0);
    if (!loaded.is_ok()) {
      throw std::runtime_error("snapshot reload failed: " + loaded.to_string());
    }
  }

  const auto busy = [&](Op op) {
    return static_cast<double>(tracer.totals(op).busy_ns) * 1e-9;
  };
  const auto calls = [&](Op op) {
    return static_cast<double>(tracer.totals(op).calls);
  };
  // Busy time in epoch spans: core, traffic, sim, adversary.
  double layer_busy[4] = {0.0, 0.0, 0.0, 0.0};
  const char* const kLayers[4] = {"core", "traffic", "sim", "adversary"};
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    const double epoch_busy =
        busy(op) - static_cast<double>(in_setup[i].busy_ns) * 1e-9;
    for (int l = 0; l < 4; ++l) {
      if (std::string(op_layer(op)) == kLayers[l]) layer_busy[l] += epoch_busy;
    }
  }
  const double self_s =
      wall_s - layer_busy[0] - layer_busy[1] - layer_busy[2] - layer_busy[3];

  const fi::core::NetworkStats& st = replay.net().stats();
  const double adds = calls(Op::core_file_add);
  const double cache_lookups =
      static_cast<double>(traffic.cache_hits + traffic.cache_misses);
  const fi::sim::NetModel* nm = replay.netmodel();

  JsonObject m;
  m.num("core.file_add.calls", adds)
      .num("core.file_add.busy_s", busy(Op::core_file_add))
      .num("core.file_add.rejected", static_cast<double>(replay.add_rejections()))
      .num("core.file_discard.calls", calls(Op::core_file_discard))
      .num("core.file_discard.busy_s", busy(Op::core_file_discard))
      .num("core.add_resamples_per_add",
           ratio(static_cast<double>(st.add_resamples), adds))
      .num("core.advance_to.calls", calls(Op::core_advance_to))
      .num("core.advance_to.busy_s", busy(Op::core_advance_to))
      .num("core.pending_tasks.max", static_cast<double>(replay.pending_max()))
      .num("core.refresh.started", static_cast<double>(st.refreshes_started))
      .num("core.refresh.completed", static_cast<double>(st.refreshes_completed))
      .num("core.refresh.success_ratio",
           ratio(static_cast<double>(st.refreshes_completed),
                 static_cast<double>(st.refreshes_started)))
      .num("core.punishments", static_cast<double>(st.punishments))
      .num("core.file_confirm.calls", calls(Op::core_file_confirm))
      .num("core.file_confirm.busy_s", busy(Op::core_file_confirm))
      .num("core.file_confirm.rejected",
           static_cast<double>(replay.confirm_rejections()))
      .num("core.sector_register.calls", calls(Op::core_sector_register))
      .num("core.sector_register.busy_s", busy(Op::core_sector_register))
      .num("core.corrupt.calls", calls(Op::core_corrupt))
      .num("core.corrupt.busy_s", busy(Op::core_corrupt))
      .num("core.settle_all_rent.busy_s", busy(Op::core_settle_all_rent))
      .num("traffic.on_epoch.calls", calls(Op::traffic_on_epoch))
      .num("traffic.on_epoch.busy_s", busy(Op::traffic_on_epoch))
      .num("traffic.us_per_request",
           ratio(busy(Op::traffic_on_epoch) * 1e6,
                 static_cast<double>(traffic.requests_attempted)))
      .num("traffic.served_ratio",
           ratio(static_cast<double>(traffic.served),
                 static_cast<double>(traffic.requests_attempted)))
      .num("traffic.cache.hit_ratio",
           ratio(static_cast<double>(traffic.cache_hits), cache_lookups))
      .num("traffic.rate_limited", static_cast<double>(traffic.rate_limited))
      .num("traffic.dropped", static_cast<double>(traffic.dropped))
      .num("sim.send.calls", calls(Op::sim_send))
      .num("sim.send.busy_s", busy(Op::sim_send))
      .num("sim.pop_due.calls", calls(Op::sim_pop_due))
      .num("sim.pop_due.busy_s", busy(Op::sim_pop_due))
      .num("sim.delivered_ratio",
           nm == nullptr ? 0.0
                         : ratio(static_cast<double>(nm->delivered()),
                                 static_cast<double>(nm->sent())))
      .num("sim.in_flight.max", static_cast<double>(replay.in_flight_max()))
      .num("adversary.on_epoch.calls", calls(Op::adversary_on_epoch))
      .num("adversary.on_epoch.busy_s", busy(Op::adversary_on_epoch))
      .num("adversary.actions", static_cast<double>(replay.adversary_actions()))
      .num("snapshot.save.busy_s", save_s)
      .num("snapshot.bytes", static_cast<double>(snapshot_bytes))
      .num("crypto.sha256.busy_s", sha_s)
      .num("snapshot.load.busy_s", load_s)
      .num("scenario.self_s", self_s);
  for (int l = 0; l < 4; ++l) {
    m.num(std::string("share.") + kLayers[l], ratio(layer_busy[l], wall_s));
  }
  m.num("share.scenario", ratio(self_s, wall_s))
      .num("trace.wall_s", wall_s)
      .num("trace.setup_s", setup_s)
      .num("trace.run_s", run_s);

  JsonObject out;
  out.str("fingerprint", fingerprint)
      .object("stats", stats_json(replay.net().stats()))
      .object("traffic", traffic_json(traffic))
      .boolean("rent_conserved", replay.rent_conserved())
      .boolean("spans_written", tracer.write_jsonl(options.spans_path))
      .object("per_layer", m);
  print_and_exit(out.str());
}

}  // namespace perfbench
