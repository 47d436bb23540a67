#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adversary/strategy.h"
#include "core/network.h"
#include "ledger/account.h"
#include "scenario/metrics.h"
#include "scenario/spec.h"
#include "sim/net_model.h"
#include "traffic/engine.h"
#include "util/binary_io.h"
#include "util/prng.h"

/// Drives `core::Network` through a declarative `ScenarioSpec`.
///
/// The runner owns the whole experiment: it builds the ledger and engine,
/// registers the provider fleet, uploads the initial file population, then
/// executes each phase by stepping the pending-list epoch loop one task
/// batch at a time, playing the honest off-chain side in between —
/// confirming every requested replica transfer (initial uploads and
/// refresh handoffs) before its deadline, exactly the discipline a real
/// provider daemon follows. Skipping that discipline turns every refresh
/// into a punish/retry storm, which is a workload you would express as an
/// adversary knob, not an accident of the harness.
///
/// Adversaries (`spec.adversaries`) are the declarative departure from
/// that honesty: before each proof cycle the runner hands every configured
/// `AdversaryStrategy` a read-only view of the network and applies the
/// actions it emits — corruption, proof withholding, transfer refusal,
/// exit/re-join — then attributes the resulting confiscations,
/// punishments, losses and compensation back to the first strategy that
/// touched each sector (`MetricsReport::adversaries`).
///
/// Determinism: a run is a pure function of the spec. The engine streams
/// from `spec.seed`; the workload generator (file sizes, arrival counts,
/// discard picks, corruption targets) streams from `spec.seed ^
/// kWorkloadSeedSalt` so workload draws never perturb protocol draws; and
/// each adversary strategy streams from its own
/// `spec.seed ^ kAdversarySeedSalt`-derived stream, so attack schedules
/// perturb neither of the above.
///
/// Snapshot/resume: the run loop is an explicit epoch-granular state
/// machine (`RunProgress`), so between any two proof cycles the whole
/// experiment — engine, ledger, workload RNG, adversary progress, and the
/// partially-built report — has a canonical serialized form. `save_state`
/// emits it, `resume` rebuilds a runner that continues byte-identically to
/// the uninterrupted run, and the epoch callback is the hook the snapshot
/// layer uses to checkpoint every N epochs (`src/snapshot`,
/// `fi_sim --save/--load`).
namespace fi::scenario {

/// Salt folded into `spec.seed` for the workload generator stream (kept
/// public so tests can mirror the runner's draws call for call).
inline constexpr std::uint64_t kWorkloadSeedSalt = 0x5363656e6172696fULL;

/// Salt folded into `spec.seed` (together with the adversary's index) for
/// each strategy's private RNG stream.
inline constexpr std::uint64_t kAdversarySeedSalt = 0x4164766572736172ULL;

/// Salt folded into `spec.seed` for the retrieval-traffic engine's stream,
/// so request draws perturb neither protocol nor workload draws.
inline constexpr std::uint64_t kTrafficSeedSalt = 0x5265747269657665ULL;

/// Salt folded into `spec.seed` for the simulated network's latency/loss
/// stream, so delivery draws perturb none of the above ("NetModel").
inline constexpr std::uint64_t kNetSeedSalt = 0x4e65744d6f64656cULL;

class ScenarioRunner {
 public:
  /// Builds the network and setup population; `spec` must validate.
  ///
  /// `force_sim_delivery` is the zero-latency-equivalence test hook: it
  /// routes transfers through a `sim::NetModel` with the all-zero profile
  /// even when the spec's `network.*` block is absent. The model is
  /// behaviorally invisible in that configuration (no RNG draws, empty
  /// in-flight set at every checkpoint, no report block, no snapshot
  /// tail), so reports and state hashes must match the instantaneous loop
  /// byte for byte — the property `tests/netchaos_test.cpp` pins.
  explicit ScenarioRunner(ScenarioSpec spec, bool force_sim_delivery = false);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Executes every phase (remaining phases, for a resumed runner) and
  /// assembles the report. Single-shot: a second call is an invariant
  /// violation (build a fresh runner per run). Equivalent to
  /// `run_cycles(kAllCycles)` followed by `finalize()`.
  MetricsReport run();

  /// `run_cycles(kAllCycles)`: run every remaining proof cycle.
  static constexpr std::uint64_t kAllCycles = ~0ULL;

  /// Advances at most `max_cycles` proof cycles and returns how many ran
  /// (fewer only when the run's phases are exhausted; zero immediately
  /// when `max_cycles == 0`). Pauses exactly at the checkpoint-safe point
  /// — after a cycle's epoch callback, *before* the owning phase's
  /// end-of-phase bookkeeping — so the paused state is byte-identical to
  /// the state an epoch callback observes at the same epoch (`fi_sim
  /// --save-at N` ≡ `run_cycles` to epoch N + `snapshot::save_to_file`).
  /// The deferred `end_phase` runs lazily on the next call, exactly as a
  /// resumed snapshot's would. This is the stepping primitive under
  /// `fi::Session::run_epochs`.
  std::uint64_t run_cycles(std::uint64_t max_cycles);

  /// True once every phase's cycles have run AND the trailing phase
  /// bookkeeping has been applied — i.e. `run_cycles` has nothing left to
  /// do and `finalize()` may assemble the report. A runner paused after
  /// its last cycle is *not* finished until the next `run_cycles` call
  /// flushes the pending `end_phase` (deliberately: the pause state must
  /// match the epoch-callback state).
  [[nodiscard]] bool finished() const;

  /// Assembles the report after the last phase completed (`finished()`).
  /// Single-shot, and mutating: adversary `on_run_end` hooks fire and the
  /// accumulated phase entries move into the report, so checkpoints taken
  /// *after* finalize differ from mid-run ones (matching `fi_sim --save`
  /// end-of-run snapshots).
  MetricsReport finalize();

  // ---- Snapshot / resume --------------------------------------------------

  /// Invoked after every completed proof cycle at the run loop's
  /// checkpoint-safe point (all state consistent, no mid-phase locals in
  /// flight). The snapshot layer installs the actual save policy — every N
  /// epochs, at one target epoch, or never.
  using EpochCallback = std::function<void(const ScenarioRunner&)>;
  void set_epoch_callback(EpochCallback callback) {
    epoch_callback_ = std::move(callback);
  }

  /// Canonical encoding of the full experiment state (ledger, engine,
  /// workload RNG, adversaries, run progress). Deterministic and free of
  /// wall-clock values, so its SHA-256 is a replayable state fingerprint.
  void save_state(util::BinaryWriter& writer) const;

  /// Rebuilds a runner mid-run from `save_state` output. `spec` must be
  /// the spec of the saved run (the snapshot file embeds it).
  static util::Result<std::unique_ptr<ScenarioRunner>> resume(
      ScenarioSpec spec, util::BinaryReader& reader);

  /// The validated spec this runner executes.
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  // ---- Introspection ------------------------------------------------------

  /// Post-run (or post-setup) inspection for wrappers that derive custom
  /// statistics beyond the standard report.
  [[nodiscard]] const core::Network& network() const { return *net_; }
  [[nodiscard]] const ledger::Ledger& ledger() const { return ledger_; }
  [[nodiscard]] AccountId client_account() const { return client_; }
  [[nodiscard]] AccountId provider_account() const { return provider_; }
  /// Files added during setup (`spec.initial_files` unless the fleet
  /// filled up first).
  [[nodiscard]] std::uint64_t initial_files_stored() const {
    return initial_files_stored_;
  }
  /// Proof cycles advanced since setup (the epoch counter adversaries
  /// observe).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The simulated delivery network, when one is active (spec `network.*`
  /// block or `force_sim_delivery`); nullptr on the instantaneous path.
  /// Read-only observation hook for tests and tooling.
  [[nodiscard]] const sim::NetModel* netmodel() const {
    return netmodel_.get();
  }
  /// The retrieval-traffic engine (nullptr when `spec.traffic` is off).
  [[nodiscard]] const traffic::TrafficEngine* traffic() const {
    return traffic_.get();
  }

 private:
  struct ResumeTag {};
  /// Resume path: builds the deterministic construction-time scaffolding
  /// (accounts, engine, adversary objects, subscriptions) but skips the
  /// setup population — `load_state` overwrites every piece of state.
  ScenarioRunner(ScenarioSpec spec, ResumeTag);

  /// One configured adversary: its spec-built strategy, private RNG
  /// stream, outcome counters, and the sectors attributed to it.
  struct ActiveAdversary {
    // fi-lint: not-serialized(rebuilt from the scenario spec on resume)
    adversary::AdversarySpec spec;
    std::unique_ptr<adversary::AdversaryStrategy> strategy;
    util::Xoshiro256 rng;
    adversary::AdversaryCounters counters;
    std::vector<core::SectorId> claimed;
  };

  /// Where the run loop stands, plus every mid-phase accumulator that used
  /// to live on the stack of a phase body. Explicit so the whole run is
  /// serializable between any two proof cycles.
  struct RunProgress {
    std::size_t phase_index = 0;
    /// `begin_phase` ran for the current phase (baselines captured,
    /// start-of-phase actions applied).
    bool phase_started = false;
    /// Proof cycles completed within the current phase.
    std::uint64_t cycles_done = 0;

    /// The phase's report entry under construction (label/kind/start set
    /// at begin, delta/extras at end).
    PhaseMetrics metrics;
    core::NetworkStats stats_before;
    TokenAmount rent_charged_before = 0;
    TokenAmount rent_paid_before = 0;

    /// churn: `add_rejections_` at phase start.
    std::uint64_t rejections_before = 0;
    /// corrupt_burst: sectors hit by the start-of-phase burst.
    std::uint64_t sectors_hit = 0;
    /// selfish_refresh: coalition prefix [0, cutoff) fixed at phase start.
    core::SectorId selfish_cutoff = 0;
    /// admit: sectors registered at phase start, in registration order.
    std::vector<core::SectorId> admitted;
    /// selfish_refresh captivity tracking (lookups only, never iterated).
    std::unordered_map<core::FileId, std::uint64_t> streak;
    std::unordered_set<core::FileId> observed;
    std::unordered_set<core::FileId> ever_captive;
    std::uint64_t max_streak = 0;
  };

  void init_adversaries();
  void build_network();
  void setup_population();
  util::Status load_state(util::BinaryReader& reader);

  // ---- Epoch loop ---------------------------------------------------------
  /// Instantaneous path: confirms a requested transfer unless the target
  /// sector is gone or in an adversary's refusal set (checks evaluated at
  /// confirmation time — i.e. at message delivery, when sim-backed).
  void confirm_transfer(const core::ReplicaTransferRequested& request);
  /// Dispatches every queued replica-transfer request — directly
  /// (instantaneous loop) or as a latency-sampled `sim::NetModel` message —
  /// then delivers every message due at or before the current time.
  void drain_transfers();
  /// Pops and confirms every sim message due at or before `net_->now()`.
  void deliver_messages();
  /// Advances to `horizon` one task batch at a time, draining transfer
  /// requests between batches. With a sim network, message due times are
  /// advance targets too; engine tasks at time `t` run before deliveries
  /// at `t` (a message landing exactly on its deadline tick is too late) —
  /// with zero latency every message is delivered at its dispatch drain
  /// point, which reproduces the instantaneous loop exactly.
  void advance_confirming(Time horizon);
  /// Advances whole proof cycles, consulting every adversary before each
  /// one and bumping the epoch counter after it.
  void advance_cycles(std::uint64_t cycles);

  // ---- Net-condition plumbing ---------------------------------------------
  /// Marks every provable sector of `region` physically corrupted (the
  /// outage/partition proof gate: a blocked region cannot submit proofs),
  /// recording which sectors *this layer* marked in `net_suppressed_` so
  /// healing never clobbers an adversary's own withholding marks.
  void suppress_region_proofs(std::uint64_t region);
  /// Reverses `suppress_region_proofs` for the net-owned marks of
  /// `region`; sectors confiscated in the meantime are left alone.
  void restore_region_proofs(std::uint64_t region);

  // ---- Adversary plumbing -------------------------------------------------
  /// Gives every strategy its per-epoch turn (spec order) and applies the
  /// emitted actions.
  void run_adversaries();
  void apply_adversary_actions(std::size_t index,
                               std::span<const adversary::AdversaryAction> actions);
  /// First-claimant sector attribution (corruptions, punishments and
  /// losses on a claimed sector are credited to the claiming strategy).
  void claim_sector(std::size_t index, core::SectorId sector);

  // ---- Workload primitives ------------------------------------------------
  /// Adds one file (size uniform in the spec's range) and queues its
  /// upload confirmations. Returns false on protocol rejection (full
  /// fleet, funds).
  bool add_file();
  /// Uniform random live file, or kNoFile when none.
  core::FileId sample_live_file();
  void forget_file(core::FileId file);

  // ---- Phase state machine ------------------------------------------------
  /// Total proof cycles a phase spans (rent_audit converts periods).
  [[nodiscard]] std::uint64_t phase_total_cycles(const PhaseSpec& phase) const;
  /// Captures metric baselines and applies start-of-phase actions
  /// (corruption burst, sector admission).
  void begin_phase(const PhaseSpec& phase);
  /// One proof cycle of the phase's workload.
  void step_phase_cycle(const PhaseSpec& phase);
  /// Finalizes the phase's report entry and advances to the next phase.
  void end_phase(const PhaseSpec& phase);

  // fi-lint: not-serialized(construction input; resume re-supplies the
  // identical spec, cross-checked against the snapshot's spec text)
  ScenarioSpec spec_;
  ledger::Ledger ledger_;
  std::unique_ptr<core::Network> net_;
  util::Xoshiro256 workload_rng_;

  AccountId provider_ = kNoAccount;
  AccountId client_ = kNoAccount;

  /// Outstanding transfer requests (the honest provider's inbox).
  std::vector<core::ReplicaTransferRequested> transfer_queue_;

  /// Dense live-file set (swap-erase + position column) kept in sync
  /// through engine events; O(1) uniform sampling for churn discards.
  std::vector<core::FileId> live_files_;
  /// Position of each FileId in `live_files_` (kNoLivePosition when not
  /// listed), indexed by FileId: ids are dense counters, never reused.
  // fi-lint: not-serialized(derived: position column of live_files_, rebuilt on load)
  std::vector<std::size_t> live_positions_;
  static constexpr std::size_t kNoLivePosition = ~std::size_t{0};

  /// Configured adversaries, in spec order.
  std::vector<ActiveAdversary> adversaries_;
  /// sector -> index of the strategy that touched it first (attribution;
  /// lookups only, never iterated — determinism).
  std::unordered_map<core::SectorId, std::size_t> sector_claims_;
  /// Sectors currently refusing inbound transfers (lookups only).
  std::unordered_set<core::SectorId> refused_sectors_;
  std::uint64_t epoch_ = 0;

  /// Simulated delivery network (present iff `spec.network.enabled`, or
  /// with the all-zero profile under `force_sim_delivery`): replica
  /// transfers travel through it as latency-sampled messages. Its report
  /// block and snapshot tail stay gated on `spec_.network.enabled`, so the
  /// force mode is byte-invisible.
  std::unique_ptr<sim::NetModel> netmodel_;
  /// Sectors whose proofs the net layer suppressed (region partition or
  /// outage), kept sorted. Disjoint from adversary withholding marks:
  /// sectors already physically corrupted are never claimed here.
  std::vector<core::SectorId> net_suppressed_;

  /// Retrieval-traffic engine (present iff `spec.traffic.enabled`): issues
  /// the per-epoch request load after the adversaries' turn and before the
  /// cycle's task batches.
  std::unique_ptr<traffic::TrafficEngine> traffic_;
  /// Global id of each adversary's first traffic stream (honest streams
  /// occupy [0, spec.traffic.streams); each `retrieval_ddos` gang gets the
  /// next contiguous block, in spec order; non-traffic adversaries keep
  /// the running base unused).
  // fi-lint: not-serialized(derived from the spec's adversary list)
  std::vector<std::uint64_t> gang_base_;

  // fi-lint: not-serialized(construction input; test-only hook — resume
  // never runs in force mode, the spec's network block governs there)
  bool force_sim_delivery_ = false;

  std::uint64_t initial_files_stored_ = 0;
  std::uint64_t add_rejections_ = 0;
  // fi-lint: not-serialized(host wall timing; reporting only)
  double setup_seconds_ = 0.0;
  // fi-lint: not-serialized(single-shot run() latch; resume always
  // reconstructs a not-yet-run runner)
  bool ran_ = false;

  RunProgress progress_;
  /// Completed-phase entries accumulated so far (the report's `phases`).
  std::vector<PhaseMetrics> finished_phases_;
  // fi-lint: not-serialized(host-side hook; the resume caller re-registers it)
  EpochCallback epoch_callback_;
  /// Wall-clock anchor for the current phase's `wall_seconds` (host time;
  /// restarts at zero on resume — timings are not simulation state).
  // fi-lint: not-serialized(host wall timing; restarts at zero on resume)
  double phase_wall_seconds_ = 0.0;
  /// Wall seconds accumulated across `run_cycles` calls, so a stepped run
  /// reports the same `wall_seconds` semantics as a monolithic `run()`.
  // fi-lint: not-serialized(host wall timing; reporting only)
  double run_wall_seconds_ = 0.0;
};

}  // namespace fi::scenario
