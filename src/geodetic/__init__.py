"""Geodesic counting in graphs, Cayley balls of groups, ladder-like
structure bounds, and geodesic-language analysis."""

from .graphs import (
    Graph,
    GraphFormatError,
    PathSeq,
    UnreachablePairError,
    build_graph,
    enumerate_geodesics,
    graph_to_dot,
    is_k_geodetic,
    min_geodetic_k,
    parse_graph,
)
from .words import (
    LSDecomposition,
    Word,
    WordEquationError,
    commuting_common_root,
    format_word,
    parse_word,
    primitive_root,
    solve_zx_eq_yz,
)
from .groups import (
    BallBudgetError,
    CayleyBall,
    CyclicSpec,
    GenSet,
    GenSetError,
    GroupSpec,
    GroupSpecError,
    PlainSpec,
    ProductSpec,
    TableSpec,
    cayley_ball,
    parse_group_file,
    validate_genset,
    word_to_element,
)
from .geometry import (
    BigonRecord,
    Coverage,
    LadderRecord,
    PairStats,
    SearchScope,
    TriangleRecord,
    close_bound_C,
    enumerate_bigons,
    enumerate_triangles,
    find_ladders,
    iter_disjoint_pairs,
    ladder_bound_A,
    pair_stats,
    validate_path,
)
from .lang import (
    BallRangeError,
    FactorAutomaton,
    FiniteOrderError,
    ForbiddenSet,
    PowerLanguageReport,
    Stabilization,
    build_factor_automaton,
    centraliser_in_ball,
    check_locally_excluding,
    minimal_forbidden_factors,
    power_language,
)

__version__ = "0.1.0"
