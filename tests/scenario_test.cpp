// Scenario engine: config parsing, spec round-trips, malformed-config
// rejection, deterministic reports, and equivalence of a runner-driven
// workload with the same requests issued directly against core::Network.

#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/network.h"
#include "ledger/account.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "snapshot/snapshot.h"
#include "util/binary_io.h"
#include "util/config.h"
#include "util/prng.h"

namespace {

using fi::core::Network;
using fi::core::NetworkStats;
using fi::scenario::PhaseKind;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;
using fi::util::Config;

// ---- util::Config ---------------------------------------------------------

TEST(ConfigTest, ParsesKeyValueLines) {
  const auto config = Config::parse(
      "# comment\n"
      "name = demo   ; trailing comment\n"
      "seed = 1_000_000\n"
      "\n"
      "net.cap_para = 12.5\n"
      "net.distinct_sectors = true\n");
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_EQ(config.value().get_string("name").value(), "demo");
  EXPECT_EQ(config.value().get_u64("seed").value(), 1'000'000u);
  EXPECT_DOUBLE_EQ(config.value().get_double("net.cap_para").value(), 12.5);
  EXPECT_TRUE(config.value().get_bool("net.distinct_sectors").value());
  EXPECT_TRUE(config.value().unconsumed_keys().empty());
}

TEST(ConfigTest, ParsesFlatJson) {
  const auto config = Config::parse(
      R"({"name": "demo", "seed": 42, "net.cap_para": 12.5,
          "net.distinct_sectors": true})");
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_EQ(config.value().get_string("name").value(), "demo");
  EXPECT_EQ(config.value().get_u64("seed").value(), 42u);
  EXPECT_DOUBLE_EQ(config.value().get_double("net.cap_para").value(), 12.5);
  EXPECT_TRUE(config.value().get_bool("net.distinct_sectors").value());
}

TEST(ConfigTest, RejectsMalformedInput) {
  EXPECT_FALSE(Config::parse("just words without equals\n").is_ok());
  EXPECT_FALSE(Config::parse("a = 1\na = 2\n").is_ok());      // duplicate
  EXPECT_FALSE(Config::parse("bad key! = 1\n").is_ok());      // key charset
  EXPECT_FALSE(Config::parse("{\"a\": 1").is_ok());           // unterminated
  EXPECT_FALSE(Config::parse("{\"a\": 1} trailing").is_ok());
}

TEST(ConfigTest, TypedGettersValidateStrictly) {
  const auto config =
      Config::parse("n = 12x\nd = 1.5.2\nb = maybe\nneg = -3\n");
  ASSERT_TRUE(config.is_ok());
  EXPECT_FALSE(config.value().get_u64("n").is_ok());
  EXPECT_FALSE(config.value().get_double("d").is_ok());
  EXPECT_FALSE(config.value().get_bool("b").is_ok());
  EXPECT_FALSE(config.value().get_u64("neg").is_ok());
  EXPECT_FALSE(config.value().get_u64("absent").is_ok());
  EXPECT_EQ(config.value().get_u64_or("absent", 7).value(), 7u);
}

TEST(ConfigTest, TracksUnconsumedKeys) {
  const auto config = Config::parse("a = 1\nb = 2\nc = 3\n");
  ASSERT_TRUE(config.is_ok());
  (void)config.value().get_u64("b");
  const auto unread = config.value().unconsumed_keys();
  ASSERT_EQ(unread.size(), 2u);
  EXPECT_EQ(unread[0], "a");
  EXPECT_EQ(unread[1], "c");
}

// ---- ScenarioSpec ---------------------------------------------------------

ScenarioSpec mini_spec() {
  ScenarioSpec spec;
  spec.name = "mini";
  spec.seed = 5;
  spec.sectors = 50;
  spec.sector_units = 4;
  spec.initial_files = 120;
  spec.file_size_min = 1024;
  spec.file_size_max = 2048;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 100.0;
  spec.params.gamma_deposit = 0.05;
  return spec;
}

TEST(ScenarioSpecTest, ConfigRoundTripIsLossless) {
  ScenarioSpec spec = mini_spec();
  spec.params.avg_refresh = 12.25;
  spec.phases.push_back(PhaseSpec::make_churn(3, 40, 0.125, true));
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.0625, 2));
  spec.phases.push_back(PhaseSpec::make_selfish_refresh(0.3, 7));
  spec.phases.push_back(PhaseSpec::make_admit(9, 2));
  spec.phases.push_back(PhaseSpec::make_rent_audit(4));
  spec.phases.push_back(PhaseSpec::make_idle(1));
  spec.phases.back().label = "cooldown";

  const std::string text = spec.to_config_string();
  const auto config = Config::parse(text);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  const auto reparsed = ScenarioSpec::from_config(config.value());
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed.value().to_config_string(), text);
  EXPECT_EQ(reparsed.value().phases.size(), 6u);
  EXPECT_EQ(reparsed.value().phases[5].label, "cooldown");
}

fi::util::Status spec_error(const std::string& text) {
  const auto config = Config::parse(text);
  if (!config.is_ok()) return config.status();
  const auto spec = ScenarioSpec::from_config(config.value());
  EXPECT_FALSE(spec.is_ok()) << "config unexpectedly accepted:\n" << text;
  return spec.is_ok() ? fi::util::Status::ok() : spec.status();
}

TEST(ScenarioSpecTest, RejectsMalformedConfigs) {
  const std::string base = "sectors = 10\n";
  // Unknown top-level key (typo defense).
  EXPECT_FALSE(ScenarioSpec::from_config(
                   Config::parse(base + "sectorz = 9\n").value())
                   .is_ok());
  // Unknown phase kind.
  (void)spec_error(base + "phase.0.kind = meteor_strike\n");
  // Knob the phase kind does not take.
  (void)spec_error(base + "phase.0.kind = churn\n"
                          "phase.0.corrupt_fraction = 0.5\n");
  // Phase indices must start at 0 with no gaps.
  (void)spec_error(base + "phase.1.kind = idle\n");
  // Fractions outside [0, 1].
  (void)spec_error(base + "phase.0.kind = corrupt_burst\n"
                          "phase.0.corrupt_fraction = 1.5\n");
  // Structural invariants.
  (void)spec_error("sectors = 0\n");
  (void)spec_error(base + "file_size_min = 4096\nfile_size_max = 1024\n");
  (void)spec_error(base + "file_size_max = 999999999\n");
  (void)spec_error(base + "file_value = 55\n");  // not a min_value multiple
  (void)spec_error(base + "net.verify_proofs = true\n");
  (void)spec_error(base + "net.proof_due = 1\n");  // Params::validate
  // Type errors inside a known key.
  (void)spec_error("sectors = many\n");
  // Non-finite numbers (NaN passes naive range checks).
  (void)spec_error(base + "phase.0.kind = corrupt_burst\n"
                          "phase.0.corrupt_fraction = nan\n");
  (void)spec_error(base + "net.avg_refresh = inf\n");
  // Out-of-range values for uint32 params must error, not wrap.
  (void)spec_error(base + "net.k = 4294967299\n");
  // engine.workers (a no-op, still range-checked): negative values fail
  // the unsigned parse, absurd counts fail util::Config's range validation.
  (void)spec_error(base + "engine.workers = -1\n");
  (void)spec_error(base + "engine.workers = 100000\n");
  (void)spec_error(base + "engine.workers = four\n");
}

TEST(ScenarioSpecTest, EngineWorkersParsesAndRoundTrips) {
  // `engine.workers` selects nothing (the engine is single-threaded) but
  // is still parsed and emitted, so older configs and snapshots load: a
  // config that sets it round-trips and runs to the same report bytes and
  // state hash as one that omits it.
  const std::string base =
      "seed = 5\nsectors = 120\nsector_units = 4\ninitial_files = 150\n"
      "file_size_min = 1024\nfile_size_max = 2048\nfile_value = 10\n"
      "net.min_value = 10\nnet.k = 3\nnet.cap_para = 200\n"
      "net.gamma_deposit = 0.01\nnet.avg_refresh = 3\n"
      "phase.0.kind = churn\nphase.0.cycles = 3\nphase.0.adds_per_cycle = 20\n"
      "phase.0.discard_fraction = 0.05\n"
      "phase.1.kind = corrupt_burst\nphase.1.corrupt_fraction = 0.05\n"
      "phase.1.cycles = 3\n";
  const auto spec = ScenarioSpec::from_config(
      Config::parse(base + "engine.workers = 8\n").value());
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  EXPECT_EQ(spec.value().engine_workers, 8u);

  // The key survives serialization (the `--set engine.workers=K` ->
  // `--dump-spec` round trip) and reparses to the same spec.
  const std::string text = spec.value().to_config_string();
  EXPECT_NE(text.find("engine.workers = 8\n"), std::string::npos);
  const auto reparsed = ScenarioSpec::from_config(Config::parse(text).value());
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed.value().engine_workers, 8u);
  EXPECT_EQ(reparsed.value().to_config_string(), text);

  const auto plain = ScenarioSpec::from_config(Config::parse(base).value());
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  ScenarioRunner plain_run(plain.value());
  ScenarioRunner keyed_run(reparsed.value());
  const std::string report = plain_run.run().to_json(false);
  EXPECT_EQ(keyed_run.run().to_json(false), report);
  EXPECT_EQ(fi::snapshot::state_hash(keyed_run),
            fi::snapshot::state_hash(plain_run));
  EXPECT_GT(plain_run.network().stats().files_stored, 0u);

  // 0 was "one worker per hardware thread"; configs that say so still load.
  const auto zero = ScenarioSpec::from_config(
      Config::parse("sectors = 10\nengine.workers = 0\n").value());
  ASSERT_TRUE(zero.is_ok());
  EXPECT_EQ(zero.value().engine_workers, 0u);
}

TEST(ScenarioSpecTest, ValidateRejectsWrongKindKnobsOnInCodeSpecs) {
  // Names with comment characters would not survive the key=value
  // round trip (a file config's `#` is simply a comment, so only
  // in-code specs can reach this state).
  ScenarioSpec bad_name = mini_spec();
  bad_name.name = "run#3";
  EXPECT_FALSE(bad_name.validate().is_ok());

  ScenarioSpec spec = mini_spec();
  spec.phases.push_back(PhaseSpec::make_churn(3, 40));
  spec.phases.back().corrupt_fraction = 0.5;  // not a churn knob
  EXPECT_FALSE(spec.validate().is_ok());

  spec.phases.back() = PhaseSpec::make_rent_audit(2);
  spec.phases.back().cycles = 7;  // rent_audit advances periods, not cycles
  EXPECT_FALSE(spec.validate().is_ok());

  spec.phases.back() = PhaseSpec::make_rent_audit(2);
  EXPECT_TRUE(spec.validate().is_ok());
}

TEST(ScenarioSpecTest, LoadsFromFileAndReportsMissingFiles) {
  const std::string path = testing::TempDir() + "/scenario_spec_test.cfg";
  {
    std::ofstream out(path);
    out << mini_spec().to_config_string();
  }
  const auto spec = ScenarioSpec::from_file(path);
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  EXPECT_EQ(spec.value().name, "mini");
  EXPECT_FALSE(ScenarioSpec::from_file(path + ".does-not-exist").is_ok());
}

// ---- ScenarioRunner -------------------------------------------------------

ScenarioSpec churn_spec() {
  ScenarioSpec spec = mini_spec();
  spec.params.avg_refresh = 5.0;  // visible refresh traffic in few cycles
  spec.phases.push_back(PhaseSpec::make_churn(3, 20, 0.05));
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.1, 2));
  spec.phases.push_back(PhaseSpec::make_rent_audit(1));
  return spec;
}

TEST(ScenarioRunnerTest, SameSeedProducesByteIdenticalReports) {
  ScenarioRunner first(churn_spec());
  ScenarioRunner second(churn_spec());
  const std::string json1 = first.run().to_json();
  const std::string json2 = second.run().to_json();
  EXPECT_EQ(json1, json2);
  EXPECT_NE(json1.find("\"rent_conserved\": true"), std::string::npos);

  ScenarioSpec reseeded = churn_spec();
  reseeded.seed = 6;
  ScenarioRunner third(std::move(reseeded));
  EXPECT_NE(third.run().to_json(), json1);
}

TEST(ScenarioRunnerTest, TimingsAreOptIn) {
  ScenarioSpec spec = mini_spec();
  spec.initial_files = 10;
  spec.phases.push_back(PhaseSpec::make_idle(1));
  ScenarioRunner runner(std::move(spec));
  const auto report = runner.run();
  EXPECT_EQ(report.to_json(false).find("wall_seconds"), std::string::npos);
  EXPECT_NE(report.to_json(true).find("wall_seconds"), std::string::npos);
  EXPECT_NE(report.to_json(true).find("setup_seconds"), std::string::npos);
}

TEST(ScenarioRunnerTest, ReportMatchesEngineIntrospection) {
  ScenarioRunner runner(churn_spec());
  const auto report = runner.run();
  const Network& net = runner.network();

  // The report must be a faithful projection of the engine's own state.
  EXPECT_EQ(report.totals.files_added, net.stats().files_added);
  EXPECT_EQ(report.totals.files_stored, net.stats().files_stored);
  EXPECT_EQ(report.totals.files_lost, net.stats().files_lost);
  EXPECT_EQ(report.totals.value_compensated, net.stats().value_compensated);
  EXPECT_EQ(report.rent_charged, net.total_rent_charged());
  EXPECT_EQ(report.rent_paid, net.total_rent_paid());
  EXPECT_EQ(report.rent_pool,
            runner.ledger().balance(net.rent_pool_account()));
  EXPECT_EQ(report.final_files, net.file_count());
  EXPECT_EQ(report.final_time, net.now());
  EXPECT_TRUE(report.rent_conserved);
  EXPECT_EQ(report.rent_charged, report.rent_paid + report.rent_pool);

  // Phase deltas telescope to the totals.
  NetworkStats sum;
  for (const auto& phase : report.phases) {
    sum.files_added += phase.delta.files_added;
    sum.files_lost += phase.delta.files_lost;
    sum.refreshes_started += phase.delta.refreshes_started;
  }
  // Setup adds happen before phase 0; phases only add churn arrivals.
  EXPECT_EQ(sum.files_added + report.initial_files,
            report.totals.files_added);
  EXPECT_EQ(sum.files_lost, report.totals.files_lost);
  EXPECT_LE(sum.refreshes_started, report.totals.refreshes_started);
}

/// The runner is "direct Network calls plus bookkeeping": replaying the
/// same request sequence by hand against a fresh engine must produce the
/// same counters. Mirrors the runner's documented determinism contract
/// (engine stream = seed, workload stream = seed ^ kWorkloadSeedSalt).
TEST(ScenarioRunnerTest, MiniChurnMatchesDirectNetworkCalls) {
  ScenarioSpec spec = mini_spec();
  spec.phases.push_back(PhaseSpec::make_churn(2, 15));
  const std::uint64_t arrivals_per_cycle = 15;
  const std::uint64_t churn_cycles = 2;

  ScenarioRunner runner(spec);
  const auto report = runner.run();

  // ---- By hand: same accounts, same draws, same requests ----------------
  fi::ledger::Ledger ledger;
  const fi::AccountId provider = ledger.create_account(1'000'000'000ull);
  const fi::AccountId client = ledger.create_account(1'000'000'000ull);
  Network net(spec.params, ledger, spec.seed);
  net.set_auto_prove(true);
  std::vector<fi::core::ReplicaTransferRequested> queue;
  net.subscribe([&queue](const fi::core::Event& event) {
    if (const auto* req =
            std::get_if<fi::core::ReplicaTransferRequested>(&event)) {
      queue.push_back(*req);
    }
  });
  const auto drain = [&] {
    std::vector<fi::core::ReplicaTransferRequested> batch;
    batch.swap(queue);
    for (const auto& req : batch) {
      (void)net.file_confirm(net.sectors().at(req.to).owner, req.file,
                             req.index, req.to, {}, std::nullopt);
    }
  };
  const auto advance_confirming = [&](fi::Time horizon) {
    drain();
    while (true) {
      const fi::Time next = net.next_task_time();
      if (next == fi::kNoTime || next > horizon) break;
      net.advance_to(next);
      drain();
    }
    net.advance_to(horizon);
    drain();
  };

  fi::util::Xoshiro256 workload(spec.seed ^ fi::scenario::kWorkloadSeedSalt);
  const auto add_one = [&] {
    const fi::ByteCount span = spec.file_size_max - spec.file_size_min + 1;
    const fi::ByteCount size =
        spec.file_size_min + workload.uniform_below(span);
    ASSERT_TRUE(net.file_add(client, {size, spec.file_value, {}}).is_ok());
  };

  const fi::ByteCount capacity =
      spec.sector_units * spec.params.min_capacity;
  for (std::uint64_t s = 0; s < spec.sectors; ++s) {
    ASSERT_TRUE(net.sector_register(provider, capacity).is_ok());
  }
  for (std::uint64_t f = 0; f < spec.initial_files; ++f) add_one();
  advance_confirming(net.now() +
                     spec.params.transfer_window(spec.file_size_max) + 1);
  for (std::uint64_t c = 0; c < churn_cycles; ++c) {
    for (std::uint64_t a = 0; a < arrivals_per_cycle; ++a) add_one();
    advance_confirming(net.now() + spec.params.proof_cycle);
  }

  EXPECT_EQ(report.totals.files_added, net.stats().files_added);
  EXPECT_EQ(report.totals.files_stored, net.stats().files_stored);
  EXPECT_EQ(report.totals.upload_failures, net.stats().upload_failures);
  EXPECT_EQ(report.totals.refreshes_started, net.stats().refreshes_started);
  EXPECT_EQ(report.totals.refreshes_completed,
            net.stats().refreshes_completed);
  EXPECT_EQ(report.totals.punishments, net.stats().punishments);
  EXPECT_EQ(report.rent_charged, net.total_rent_charged());
  EXPECT_EQ(report.final_files, net.file_count());
  EXPECT_EQ(report.final_time, net.now());
}

TEST(ScenarioRunnerTest, ExtraLookupHelper) {
  fi::scenario::PhaseMetrics phase;
  phase.extras.emplace_back("alpha", 0.5);
  EXPECT_DOUBLE_EQ(fi::scenario::extra_or(phase, "alpha"), 0.5);
  EXPECT_DOUBLE_EQ(fi::scenario::extra_or(phase, "beta", -1.0), -1.0);
}


/// The live-file list indexes a dense position column by FileId, so a
/// resume must reject an id the network never issued, before the id can
/// size the column, and an id listed twice (the saved list never repeats).
TEST(ScenarioRunnerTest, LiveFileListWithUnissuedOrRepeatedIdIsRejected) {
  const ScenarioSpec spec = churn_spec();
  std::vector<std::uint8_t> body;
  std::size_t list = 0;  // offset of the live list's u64 length word
  fi::core::FileId next_file = 0;
  ScenarioRunner saver(spec);
  saver.set_epoch_callback([&](const ScenarioRunner& at_epoch) {
    if (at_epoch.epoch() != 2) return;
    fi::util::BinaryWriter writer;
    at_epoch.save_state(writer);
    body = writer.data();
    // Five u64 header words and four PRNG words, the ledger, the engine,
    // then the transfer queue (a u64 count of 44-byte requests).
    fi::util::BinaryWriter ledger;
    at_epoch.ledger().save(ledger);
    fi::util::BinaryWriter engine;
    at_epoch.network().save(engine);
    const std::size_t queue = 9 * 8 + ledger.data().size() +
                              engine.data().size();
    fi::util::BinaryReader count(
        std::span<const std::uint8_t>(body).subspan(queue));
    list = queue + 8 + 44 * static_cast<std::size_t>(count.u64());
    next_file = at_epoch.network().next_file_id();
  });
  (void)saver.run();
  ASSERT_FALSE(body.empty());
  const std::span<const std::uint8_t> saved(body);
  fi::util::BinaryReader length(saved.subspan(list));
  ASSERT_GE(length.u64(), 2u);

  const auto resumes = [&](const std::vector<std::uint8_t>& bytes) {
    fi::util::BinaryReader reader(bytes);
    return ScenarioRunner::resume(spec, reader).is_ok();
  };
  const auto with_id = [&](std::size_t slot, std::uint64_t id) {
    std::vector<std::uint8_t> bytes = body;
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[list + 8 + 8 * slot + b] =
          static_cast<std::uint8_t>(id >> (8 * b));
    }
    return bytes;
  };
  ASSERT_TRUE(resumes(body));
  EXPECT_FALSE(resumes(with_id(0, next_file)));
  EXPECT_FALSE(resumes(with_id(0, std::uint64_t{1} << 40)));
  fi::util::BinaryReader first(saved.subspan(list + 8));
  EXPECT_FALSE(resumes(with_id(1, first.u64())));
}
}  // namespace
