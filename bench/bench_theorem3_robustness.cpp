// Reproduces the Theorem 3 corollary (§V-B3): the fraction of file value
// lost when an adversary corrupts a λ fraction of capacity.
//
// For each replication factor k and corruption level λ we measure the
// realized loss under (a) random corruption and (b) the informed targeted
// adversary, and print them against the theorem's bound
//   γ_lost <= max{5λ^k, λ^{k/2}, (log term)}.
// The paper's headline: with k=20, even λ=0.5 loses < 0.1% of value.
// Exits 1 when any cell's loss exceeds the bound.

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/bounds.h"
#include "analysis/placement.h"
#include "util/prng.h"

int main() {
  using namespace fi::analysis;

  constexpr std::uint64_t kFiles = 100'000;
  constexpr std::uint32_t kSectors = 1000;
  constexpr int kTrials = 3;
  const double gamma_v_m = 1.0;  // network filled to its designed value
  const double cap_para = static_cast<double>(kFiles) / kSectors;

  std::printf("Theorem 3 reproduction — lost-value ratio vs corruption\n");
  std::printf("(Nv = %llu files, Ns = %u sectors, i.i.d. placement, "
              "%d trials per cell)\n",
              static_cast<unsigned long long>(kFiles), kSectors, kTrials);

  bool all_hold = true;
  for (const std::uint32_t k : {4u, 8u, 12u, 20u}) {
    const ReplicaPlacement placement(kFiles, k, kSectors, /*seed=*/k * 101);
    fi::util::Xoshiro256 rng(k * 999 + 7);
    std::printf("\nk = %u\n", k);
    std::printf("%8s %14s %14s %14s %8s\n", "lambda", "random loss",
                "targeted loss", "bound", "holds");
    for (const double lambda : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
      double random_loss = 0.0, targeted_loss = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        random_loss += placement.lost_fraction(
            random_corruption(kSectors, lambda, rng));
        targeted_loss += placement.lost_fraction(
            targeted_corruption(placement, lambda, rng));
      }
      random_loss /= kTrials;
      targeted_loss /= kTrials;
      const double bound =
          theorem3_gamma_lost_bound(lambda, k, kSectors, gamma_v_m, cap_para);
      const bool holds = random_loss <= bound && targeted_loss <= bound;
      all_hold = all_hold && holds;
      std::printf("%8.1f %14.6f %14.6f %14.6f %8s\n", lambda, random_loss,
                  targeted_loss, std::min(bound, 1.0), holds ? "yes" : "NO");
    }
  }

  // The paper's worked example, in closed form.
  std::printf("\nWorked example (paper §V-B3): k=20, Ns=1e6, capPara=1e3, "
              "lambda=0.5\n");
  std::printf("  5*lambda^k      = %.2e\n  lambda^(k/2)    = %.2e\n",
              5.0 * std::pow(0.5, 20), std::pow(0.5, 10));
  for (const double gmv : {0.005, 0.05, 0.5}) {
    std::printf("  bound(gamma_v_m=%.3f) = %.6f\n", gmv,
                theorem3_gamma_lost_bound(0.5, 20, 1e6, gmv, 1e3));
  }
  std::printf("Paper claims gamma_lost <= 0.001 when gamma_v_m >= 0.005; see "
              "EXPERIMENTS.md\nfor a note on the paper's third-term "
              "arithmetic.\n");
  if (!all_hold) {
    std::printf("FAILED: a measured loss exceeds the Theorem 3 bound\n");
    return 1;
  }
  return 0;
}
