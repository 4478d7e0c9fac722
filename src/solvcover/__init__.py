"""Solvabilizer covering numbers of finite nonsolvable groups.

Compute, bound, and certify the minimum number of solvabilizer sets
Sol(x) = { y : <x,y> is solvable } needed to cover a finite nonsolvable
group, over all nonradical elements (alpha) or over involutions only
(alpha_inv, possibly infinite).
"""

from .constructions import (
    GroupSpec,
    Matrix2,
    alternating,
    build,
    dihedral,
    direct_product,
    gl2,
    gl2_cover_elements,
    m10,
    parse_spec,
    pgammal2,
    pgl2,
    project_to_psl,
    psl2,
    raw,
    squished,
    symmetric,
    sz,
    wreath,
)
from .cover import (
    EXACT,
    INFEASIBLE,
    INTERVAL,
    MODE_ALL,
    MODE_INVOLUTIONS,
    CoverOutcome,
    SolveBudget,
    class_counting_bound,
    class_counting_rows,
    greedy_cover,
    solve_alpha,
    solve_exact,
    solve_product,
    solve_spec,
    solve_wreath,
)
from .errors import (
    BadParameter,
    CapExceeded,
    DeterminantNotSquare,
    ElementInRadical,
    ElementNotFound,
    ElementNotInGroup,
    EmptyGenerators,
    EvenFieldOrder,
    GroupSolvable,
    InfeasibleUniverse,
    InternalInconsistency,
    NotAPrimePower,
    NotASubgroup,
    NotNormal,
    NotTwoGenerated,
    SolvcoverError,
)
from .fields import GF, field_ops
from .group import (
    DEFAULT_CAP,
    ClassPartition,
    ElementSet,
    GroupTable,
    conjugacy_classes,
    derived_subgroup,
    enumerate_group,
    index_two_subgroups,
    is_solvable,
    quotient_by,
    solvable_radical,
    subgroup_closure,
)
from .perm import Permutation, format_cycles, parse_cycles
from .solvabilizer import (
    CoverInstance,
    MaximalSolvableCensus,
    SolvabilizerIncidence,
    maximal_cyclic_generators,
    maximal_solvable_subgroups,
    mu_pairwise_generators,
    mu_s,
    pairwise_generates,
    reduce_instance,
    sol_incidence,
    sol_of,
    union_check,
)
from .theorems import (
    BoundReport,
    Certificate,
    TheoremBound,
    attach_computed,
    cross_check,
    family_bounds,
    format_cross_check,
    first_uncovered,
    verify_certificate,
    verify_gl2_cover,
)

__version__ = "0.1.0"
