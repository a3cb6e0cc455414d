"""The paper's primary contribution: the 5-step BML design methodology and
the pro-active energy-proportional scheduler.

Typical end-to-end flow::

    from repro.core import design, BMLScheduler, table_i_profiles
    from repro.workload import synthesize
    from repro.sim import execute_plan

    infra = design(table_i_profiles())
    trace = synthesize()
    result = execute_plan(BMLScheduler(infra).plan(trace), trace, "BML")
"""

from .adaptive import TransitionAwareScheduler, transition_cost
from .baselines import (
    big_machines_needed,
    global_upper_bound_plan,
    per_day_upper_bound_plan,
)
from .bml import BMLInfrastructure, design
from .combination import (
    Combination,
    CombinationError,
    CombinationTable,
    build_table,
    greedy_combination,
    ideal_combination,
    ideal_table,
)
from .constraints import (
    bounded_nodes_combination,
    bounded_nodes_table,
    constrained_table,
    enforce_min_nodes,
)
from .crossing import (
    CrossingReport,
    compute_thresholds,
    crossing_vs_ideal,
    crossing_vs_stack,
)
from .filtering import FilterResult, bml_candidates, filter_dominated, sort_by_performance
from .prediction import (
    EWMAPredictor,
    LookAheadMaxPredictor,
    NoisyPredictor,
    PerfectPredictor,
    Predictor,
    TrailingMaxPredictor,
    paper_window,
)
from .profiles import (
    ILLUSTRATIVE,
    TABLE_I,
    ArchitectureProfile,
    ProfileError,
    illustrative_profiles,
    table_i_profiles,
)
from .reconfiguration import (
    PlanSegments,
    Reconfiguration,
    ReconfigurationLog,
    SchedulePlan,
    Segment,
    Transition,
    build_plan,
    plan_reconfiguration,
    transition,
)
from .scheduler import BMLScheduler, ScheduleOutcome

__all__ = [
    "ArchitectureProfile",
    "ProfileError",
    "TABLE_I",
    "ILLUSTRATIVE",
    "table_i_profiles",
    "illustrative_profiles",
    "FilterResult",
    "bml_candidates",
    "filter_dominated",
    "sort_by_performance",
    "CrossingReport",
    "compute_thresholds",
    "crossing_vs_stack",
    "crossing_vs_ideal",
    "Combination",
    "CombinationError",
    "CombinationTable",
    "build_table",
    "greedy_combination",
    "ideal_combination",
    "ideal_table",
    "BMLInfrastructure",
    "design",
    "Predictor",
    "LookAheadMaxPredictor",
    "PerfectPredictor",
    "TrailingMaxPredictor",
    "EWMAPredictor",
    "NoisyPredictor",
    "paper_window",
    "Segment",
    "Reconfiguration",
    "PlanSegments",
    "ReconfigurationLog",
    "SchedulePlan",
    "plan_reconfiguration",
    "Transition",
    "transition",
    "build_plan",
    "BMLScheduler",
    "ScheduleOutcome",
    "TransitionAwareScheduler",
    "transition_cost",
    "bounded_nodes_combination",
    "bounded_nodes_table",
    "constrained_table",
    "enforce_min_nodes",
    "big_machines_needed",
    "global_upper_bound_plan",
    "per_day_upper_bound_plan",
]
