"""The package namespace: what ``import csgame`` exports."""

from __future__ import annotations

import csgame

# Every public name of the package, as the modules' ``__all__`` lists compose it.
PUBLIC_NAMES = {
    # game
    "GameSpec", "MAX_ENUM_PROFILES", "MAX_OPPONENT_PROFILES", "aggregate_message",
    "aggregated_utility", "check_profile", "expected_utility", "potential",
    "potential_table", "utility", "utility_table",
    # equilibrium
    "REGION_PROFILES", "EquilibriumReport", "analyze_game", "boundary_margin_2x2",
    "classify_region_2x2", "enumerate_pure_ne", "mixed_ne_2x2", "region_ne_profiles",
    "require_symmetric_2x2",
    # dynamics
    "TIE_BREAKS", "BatchFPResult", "BeliefState", "CycleReport", "QState", "Trajectory",
    "cycle_persistence_2x2", "detect_cycle", "empirical_frequencies",
    "fp_best_response", "q_from_beliefs", "run_aggregation_fp", "run_fp", "run_fp_batch_2x2",
    # config
    "ConfigError", "DynamicsSpec", "ExperimentConfig", "GeneratorSpec", "OutputSpec",
    "load_config", "parse_config",
    # montecarlo
    "CONVERGENCE_TV", "CYCLE_WINDOW", "OUTCOMES", "SCHEMA_VERSION", "MonteCarloSummary",
    "SweepRecords",
    "generate_game", "run_experiment", "run_trial", "sample_gains", "simulate_trajectory",
    "snr_db_to_power", "trial_game", "trial_rng",
    # output
    "emit_plot_data", "read_trajectory_csv", "write_summary_json", "write_trajectory_csv",
    "write_trajectory_json", "write_trial_records",
    "__version__",
}


def test_exported_names():
    assert len(PUBLIC_NAMES) == 62
    assert len(csgame.__all__) == len(set(csgame.__all__))
    assert set(csgame.__all__) == PUBLIC_NAMES


def test_every_name_resolves_to_its_module():
    for name in csgame.__all__:
        value = getattr(csgame, name)
        for module in (csgame.game, csgame.equilibrium, csgame.dynamics, csgame.config,
                       csgame.montecarlo, csgame.output):
            if name in module.__all__:
                assert getattr(module, name) is value
    assert csgame.__version__ == "0.1.0"
