"""Regret-matching dynamics over products of probability simplices."""

from .learners import (
    Kind,
    RegretState,
    current_strategy,
    external_regret_bound_check,
    new_learner,
    normalize_strategy,
    positive_part,
    regret_l1_positive,
    regret_l2,
    step,
    threshold_init_value,
    uniform_strategy,
)
from .games import (
    GameSpec,
    check_symmetric,
    game_json_dict,
    load_game,
    mixed_potential,
    normalize_game,
    random_congestion_game,
    random_potential_game,
    random_symmetric_identical_game,
    save_game,
    utility_range,
    utility_vector,
    verify_potential,
)
from .objectives import (
    ObjectiveHandle,
    SimplexProduct,
    br_gap,
    check_gradient,
    kkt_gap,
    load_objective,
    make_cycle_polynomial,
    make_multilinear,
    multilinear_smoothness_bound,
    normalize_objective,
)
from .dynamics import (
    InitPolicy,
    PlayHistory,
    RunConfig,
    RunResult,
    Scheme,
    StrategiesJsonlWriter,
    TraceCsvWriter,
    TraceRecord,
    cce_gap,
    cce_gaps,
    external_regret,
    iter_strategies_jsonl,
    nash_gap,
    read_strategies_jsonl,
    replay_cce,
    run,
    write_strategies_jsonl,
    write_trace_csv,
)
from .hard_instances import (
    PhaseReport,
    PhaseTracker,
    SpiralMatrix,
    analyze_phases,
    build_padded,
    build_spiral,
    build_uniform_init,
    check_stall_growth,
    pure_init_strategies,
    replay_regrets,
)
from .selftests import SUITES, SuiteResult, run_suites

__version__ = "0.1.0"
