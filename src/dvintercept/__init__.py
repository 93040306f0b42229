"""Traffic interception in distance-vector routing networks.

Honest agents synchronize believed distances and forward greedily; colluding
agents broadcast minimal false distances to maximize the fraction of node
pairs whose every delivery path crosses a colluder, while every message still
reaches its destination.
"""

from .graph import (
    INF,
    Graph,
    ParseError,
    component_labels,
    distance_avoiding,
    erdos_renyi,
    from_edge_list,
    from_edges,
    generate,
    load_edge_list,
    pref_attach,
    watts_strogatz,
)
from .interception import InterceptionResult, intercepted_pairs
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
    honest_strategy,
    independent_strategy,
    rho_star_plan,
    separated_strategy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
