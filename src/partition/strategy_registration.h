#ifndef GDP_PARTITION_STRATEGY_REGISTRATION_H_
#define GDP_PARTITION_STRATEGY_REGISTRATION_H_

/// The built-in strategy manifest. Each strategy translation unit defines
/// its Register*Strategies() hook, and EnsureBuiltinStrategiesRegistered()
/// (strategy_registry.cc) invokes them once, in the fixed order below.
///
/// An explicit manifest instead of static-initializer self-registration is
/// deliberate: static registrars in a static archive are dead-stripped
/// unless something references their TU, and their run order is
/// unspecified — both would break the registry's deterministic iteration
/// order, which tests and CSV output rely on. The cost is one line here
/// per strategy TU; external strategies (outside this library) still
/// register at runtime via StrategyRegistry::Register().

namespace gdp::partition {

void RegisterHashStrategies();        // hash_partitioners.cc
void RegisterConstrainedStrategies(); // constrained.cc
void RegisterGreedyStrategies();      // greedy.cc
void RegisterHybridStrategies();      // hybrid.cc
void RegisterChunkedStrategies();     // chunked.cc
void RegisterExpansionStrategies();   // expansion.cc (NE, SNE)
void RegisterTwoPhaseStrategies();    // two_phase.cc (2PS)
void RegisterHepStrategies();         // hep.cc

/// Idempotent; StrategyRegistry::Instance() calls this first.
void EnsureBuiltinStrategiesRegistered();

class StrategyRegistry;

/// The process-wide registry *without* the built-in guarantee: the
/// Register*Strategies() hooks above register through it, because they run
/// inside EnsureBuiltinStrategiesRegistered() and Instance() would re-enter
/// it. Everything else uses StrategyRegistry::Instance().
StrategyRegistry& RegistryForBuiltins();

}  // namespace gdp::partition

#endif  // GDP_PARTITION_STRATEGY_REGISTRATION_H_
