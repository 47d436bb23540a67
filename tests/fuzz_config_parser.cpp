// Fuzz target for the scenario-config front door: `util::Config::parse`
// followed by `scenario::ScenarioSpec::from_config`. Config files are the
// input users hand-edit (`fi_sim --scenario`, plan nodes, `--set`). Neither
// step may crash, and a spec that parses and validates must serialize
// (`to_config_string`) to text that parses back to a spec with the same
// text — the lossless round trip `--dump-spec` and snapshots rely on.
//
// Two build modes:
//
//   * FI_ENABLE_FUZZERS=ON with Clang: linked against libFuzzer
//     (`-fsanitize=fuzzer,address,undefined`) as the `fuzz_config_parser`
//     binary. Run with a corpus directory:  ./fuzz_config_parser corpus/
//
//   * any other compiler: a plain `main` replays (a) every file passed on
//     argv and (b) a built-in deterministic battery of truncations, byte
//     substitutions, line edits and out-of-range values over two seed
//     configs (key=value and flat JSON), so the same invariants are
//     exercised under GCC and in ctest without libFuzzer.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>

#include "scenario/spec.h"
#include "util/config.h"

namespace {

[[noreturn]] void fail(const char* what, std::string_view input) {
  std::fprintf(stderr, "fuzz_config_parser: %s\n--- input ---\n%.*s\n", what,
               static_cast<int>(input.size()), input.data());
  std::abort();
}

// One fuzz iteration: parse must return (not crash), and an accepted spec
// must round-trip through its canonical text. Returns whether the input
// was accepted.
bool one_input(std::span<const std::uint8_t> data) {
  const std::string_view text(reinterpret_cast<const char*>(data.data()),
                              data.size());
  auto config = fi::util::Config::parse(text);
  if (!config.is_ok()) return false;
  auto spec = fi::scenario::ScenarioSpec::from_config(config.value());
  if (!spec.is_ok()) return false;

  const std::string canonical = spec.value().to_config_string();
  auto reparsed = fi::util::Config::parse(canonical);
  if (!reparsed.is_ok()) fail("canonical text does not parse", text);
  auto respec = fi::scenario::ScenarioSpec::from_config(reparsed.value());
  if (!respec.is_ok()) fail("canonical text does not validate", text);
  if (respec.value().to_config_string() != canonical) {
    fail("canonical text does not round-trip", text);
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  one_input({data, size});
  return 0;
}

#if !defined(FI_HAVE_LIBFUZZER)

#include <fstream>
#include <iostream>
#include <iterator>
#include <vector>

namespace {

// xorshift64: deterministic harness-local noise (this binary is not part
// of the simulation, but keep it seed-stable anyway so failures replay).
std::uint64_t next_noise(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Every spec layer at once: protocol parameters, a simulated network,
// retrieval traffic with its defense, two adversaries and one phase of
// each family.
constexpr std::string_view kSeedConfig = R"(# fuzz seed
name = fuzz_seed
seed = 42
engine.workers = 1
sectors = 40
sector_units = 4
initial_files = 60
file_size_min = 1_024
file_size_max = 2048
file_value = 10
net.min_value = 10
net.k = 3
net.cap_para = 200
net.gamma_deposit = 0.05
net.avg_refresh = 20
net.delay_per_kib = 40
network.regions = 3
network.base_latency = 2
network.region_latency = 4
network.ticks_per_kib = 1
network.jitter = 2
network.drop_probability = 0.02
traffic.requests_per_cycle = 160
traffic.streams = 8
traffic.zipf_s = 0.8
traffic.cache_blocks = 256
traffic.defense.enabled = true
traffic.defense.rate_limit = true
adversary.0.strategy = retrieval_ddos
adversary.0.label = hammer_gang
adversary.0.start_epoch = 6
adversary.0.requests_per_epoch = 150
adversary.0.gang = 3
adversary.1.strategy = proof_withholder
adversary.1.fraction = 0.25
adversary.1.saved_per_cycle = 100
phase.0.kind = churn
phase.0.label = warm ; trailing comment
phase.0.cycles = 4
phase.0.adds_per_cycle = 30
phase.0.discard_fraction = 0.01
phase.1.kind = outage
phase.1.region = 2
phase.1.down_cycles = 2
phase.1.cycles = 3
phase.2.kind = corrupt_burst
phase.2.corrupt_fraction = 0.1
phase.3.kind = rent_audit
phase.3.periods = 1
)";

// Values that probe every typed getter's edges: overflow, sign, non-finite
// floats, separators, empty, comment and quoting characters, whitespace.
constexpr std::string_view kValueLies[] = {
    "0",      "1",     "18446744073709551615", "18446744073709551616",
    "-1",     "1e308", "-0.5",                 "nan",
    "inf",    "1_",    "_",                    "",
    "true",   "no",    "0x10",                 "a#b",
    " a",     "a\tb",  "\"q\"",                "\\",
    "999999999999999999999999",
};

// The seed's key=value lines as a flat JSON object of string values.
std::string to_flat_json(const fi::util::Config& config) {
  std::string json = "{";
  bool first = true;
  for (const auto& [key, value] : config.entries()) {
    if (!first) json += ",\n";
    first = false;
    json += "\"" + key + "\": \"" + value + "\"";
  }
  return json + "}";
}

std::size_t ran = 0;
std::size_t accepted = 0;

void run(std::string_view text) {
  if (one_input({reinterpret_cast<const std::uint8_t*>(text.data()),
                 text.size()})) {
    ++accepted;
  }
  ++ran;
}

// Truncations, sampled byte substitutions, and dropped or duplicated lines.
void mutate_bytes(const std::string& base, std::uint64_t& noise) {
  for (std::size_t n = 0; n <= base.size(); ++n) run({base.data(), n});
  static constexpr char kBytes[] = {'#', ';', '=', '\n', '"', '\\', '{', '}',
                                    ',', ':', '0', '9', '-', '.', '_', ' ',
                                    'e', 'x', '\0', '\xff'};
  for (int i = 0; i < 4000; ++i) {
    std::string mutated = base;
    mutated[next_noise(noise) % mutated.size()] =
        kBytes[next_noise(noise) % sizeof(kBytes)];
    run(mutated);
  }
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < base.size();) {
    const std::size_t eol = std::min(base.find('\n', pos), base.size());
    lines.push_back(std::string_view(base).substr(pos, eol + 1 - pos));
    pos = eol + 1;
  }
  for (std::size_t skip = 0; skip < lines.size(); ++skip) {
    std::string dropped;
    std::string doubled;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i != skip) dropped += lines[i];
      doubled += lines[i];
      if (i == skip) doubled += lines[i];
    }
    run(dropped);
    run(doubled);
  }
}

// Every key of the seed set to every lie, in both syntaxes.
void lie_about_values(const fi::util::Config& seed) {
  for (const auto& [key, value] : seed.entries()) {
    for (const std::string_view lie : kValueLies) {
      fi::util::Config lied = seed;
      lied.set(key, std::string(lie));
      std::string text;
      for (const auto& [k, v] : lied.entries()) text += k + " = " + v + "\n";
      run(text);
      run(to_flat_json(lied));
    }
  }
}

int replay_battery() {
  const auto seed = fi::util::Config::parse(kSeedConfig);
  if (!seed.is_ok() ||
      !fi::scenario::ScenarioSpec::from_config(seed.value()).is_ok()) {
    std::cerr << "fuzz_config_parser: the seed config no longer parses\n";
    return 1;
  }
  std::uint64_t noise = 0x3243f6a8885a308dULL;
  mutate_bytes(std::string(kSeedConfig), noise);
  mutate_bytes(to_flat_json(seed.value()), noise);
  lie_about_values(seed.value());
  for (std::size_t size : {std::size_t{0}, std::size_t{7}, std::size_t{64},
                           std::size_t{513}}) {
    std::string junk(size, '\0');
    for (char& c : junk) c = static_cast<char>(next_noise(noise));
    run(junk);
  }
  std::cout << "fuzz_config_parser: replayed " << ran
            << " synthetic inputs (" << accepted
            << " accepted and round-tripped), no crash\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::cerr << "fuzz_config_parser: cannot read " << argv[i] << "\n";
      return 2;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    run(bytes);
    std::cout << "fuzz_config_parser: " << argv[i] << " ok\n";
  }
  if (argc > 1) return 0;
  return replay_battery();
}

#endif  // !FI_HAVE_LIBFUZZER
