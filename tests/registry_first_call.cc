// StrategyRegistry::Instance().All() must list every built-in strategy on
// the process's very first registry query. A plain executable rather than
// a gtest binary: in a gtest binary another test may query the registry
// first and so warm it.

#include <cstdio>

#include "partition/strategy_registry.h"

int main() {
  constexpr size_t kBuiltins = 17;
  const size_t count =
      gdp::partition::StrategyRegistry::Instance().All().size();
  if (count != kBuiltins) {
    std::fprintf(stderr, "first All() returned %zu strategies, want %zu\n",
                 count, kBuiltins);
    return 1;
  }
  return 0;
}
