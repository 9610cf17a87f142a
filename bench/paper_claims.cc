// Reproduces the paper's evaluation (§4: Table 1, Figures 2-11) plus the
// ablations and extensions, one entry of the scenario table
// (exp/scenario.h) at a time: each prints the series the paper plots and
// one `SHAPE CHECK [PASS|FAIL]` line per qualitative claim.
//
// Usage: paper_claims [--scenario=all|NAME[,NAME...]]   (default: all)
//
// Exit status: 0 when every claim held, 1 when any failed (the failed
// claims are listed on stderr), 2 for an unknown scenario or flag.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"

int main(int argc, char** argv) {
  using namespace dcg;

  std::string names = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      names = argv[i] + 11;
    } else {
      std::fprintf(stderr, "paper_claims: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<exp::Scenario> selected;
  if (names == "all") {
    selected = exp::Scenarios();
  } else {
    size_t begin = 0;
    while (begin <= names.size()) {
      const size_t end = std::min(names.find(',', begin), names.size());
      const std::string name = names.substr(begin, end - begin);
      std::optional<exp::Scenario> scenario = exp::FindScenario(name);
      if (!scenario) {
        std::fprintf(stderr, "paper_claims: unknown scenario \"%s\"\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(std::move(*scenario));
      begin = end + 1;
    }
  }

  std::vector<std::string> failed;
  for (const exp::Scenario& scenario : selected) {
    for (const std::string& claim : exp::RunScenario(scenario)) {
      failed.push_back(scenario.name + ": " + claim);
    }
  }
  std::fflush(stdout);
  if (failed.empty()) return 0;
  std::fprintf(stderr, "paper_claims: %zu claim(s) failed:\n", failed.size());
  for (const std::string& claim : failed) {
    std::fprintf(stderr, "  %s\n", claim.c_str());
  }
  return 1;
}
