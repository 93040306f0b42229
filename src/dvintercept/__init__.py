"""Traffic interception in distance-vector routing networks.

Honest agents synchronize believed distances and forward greedily; colluding
agents broadcast minimal false distances to maximize the fraction of node
pairs whose every delivery path crosses a colluder, while every message still
reaches its destination.
"""

from .graph import (
    INF,
    DistanceVector,
    Graph,
    ParseError,
    bfs_distances,
    component_labels,
    distance_avoiding,
    erdos_renyi,
    from_edge_list,
    from_edges,
    generate,
    is_connected,
    load_edge_list,
    pref_attach,
    watts_strogatz,
)
from .interception import InterceptionResult, coverage_function, intercepted_pairs
from .kernels import backend
from .protocol import BeliefState, BroadcastError, synchronize
from .reduction import (
    BlowupMap,
    NonuniformStrategy,
    blow_up,
    collapse_strategy,
    honest_nonuniform,
    lift_strategy,
    translate_fraction,
)
from .selection import (
    SelectionSpec,
    exhaustive_opt,
    greedy_max_spds,
    greedy_min_spds,
    select,
    shortest_path_coverage,
)
from .strategy import (
    AdmissibilityVerdict,
    BudgetError,
    InadmissibleError,
    RhoStarEntry,
    RhoStarPlan,
    Strategy,
    adjacent_strategy,
    check_admissible,
    colluding_distance,
    honest_strategy,
    independent_strategy,
    is_beneficial,
    minimal_admissible_bruteforce,
    rho_star_plan,
    separated_strategy,
    strategy_from_text,
    strategy_to_text,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
