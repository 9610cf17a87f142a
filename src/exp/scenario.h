// The paper-scenario table: one entry per table, figure, ablation and
// extension of the evaluation (§4), each with the base configuration it
// runs at the paper seed and a run body that prints the series the paper
// plots and checks the paper's qualitative claims. The behavioural checks
// CI runs (ci_batching, ci_driver_paths, ci_election, ci_sharded) and the
// controller bake-off are entries too, so their asserts are claims over
// structured results. `paper_claims` runs the entries by name;
// `sim_cli --scenario` loads an entry's base configuration.
//
// Client counts are the paper's divided by 4: the simulated nodes are
// deliberately slower than the paper's r4.2xlarge, so saturation comes at
// proportionally fewer closed-loop clients (DESIGN.md §5). Every run body
// prints both numbers.

#ifndef DCG_EXP_SCENARIO_H_
#define DCG_EXP_SCENARIO_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.h"

namespace dcg::exp {

/// The claims one scenario run checked. Claim() prints the claim's
/// `SHAPE CHECK [PASS|FAIL]: text` line and remembers a failure.
class Claims {
 public:
  void Claim(std::string_view text, bool ok);
  const std::vector<std::string>& failed() const { return failed_; }

 private:
  std::vector<std::string> failed_;
};

struct Scenario {
  std::string name;  // paper_claims --scenario / sim_cli --scenario
  std::string id;    // banner: "<id> — <title>"
  std::string title;
  /// The base run at the paper seed; the body varies it (system, client
  /// count, knob under test). Empty for scenarios that build their own
  /// clusters (ext_multiclient, ext_sharded) or run other entries'
  /// configurations (bakeoff).
  std::optional<ExperimentConfig> config;
  /// Runs the scenario, printing its series and recording its claims.
  void (*run)(const Scenario& self, Claims& claims) = nullptr;
};

/// Every scenario, in the order `paper_claims --scenario=all` runs them.
std::vector<Scenario> Scenarios();
std::optional<Scenario> FindScenario(std::string_view name);

/// Prints the scenario's banner and runs its body. Returns the text of
/// every claim that failed.
std::vector<std::string> RunScenario(const Scenario& scenario);

/// `base` stretched to `duration`: each phase switch and the warmup keep
/// their share of the run, so a short run replays the same shape. A
/// positive `clients` replaces the first phase's client count, and later
/// phases keep their ratio to it (at least one client).
ExperimentConfig Rescale(const ExperimentConfig& base, sim::Duration duration,
                         int clients);

}  // namespace dcg::exp

#endif  // DCG_EXP_SCENARIO_H_
