"""crnlocus: exact rational invariants of Euclidean-embedded reaction graphs.

Graph analysis (linkage classes, weak reversibility, stoichiometric
dimension), the D0/J0 kernel subspaces, realizable-flux cones with
exact-LP positivity certificates, complex-balance membership via
Matrix-Tree constants, Birch points, the forward/inverse coordinate
maps, and lower bounds on the dimension of the sign-unrestricted
disguised locus.
"""

from .egraph import (
    EGraph,
    EnumerationLimitError,
    GraphValidationError,
    NotWeaklyReversibleError,
    complete_graph,
    edge_subgraph,
    is_weakly_reversible,
    linkage_classes,
    parse_egraph,
    stoich_dim,
)
from .exactla import (
    RationalMatrix,
    Subspace,
    coords_in_basis,
    det,
    kernel_basis,
    orthogonalize,
    rank,
    solve_particular,
    subspace_from_span,
)
from .equiv import (
    EdgeVector,
    VectorGraphMismatchError,
    d0_basis,
    edge_vector_from_json,
    is_dynamically_equivalent,
    j0_basis,
    net_vectors,
    realize_on,
)
from .cone import (
    ConeResult,
    PositivityResult,
    is_complex_balanced_flux,
    is_member_jr,
    membership_failure,
    jr_dimension,
    jr_subspace,
    positive_point,
)
from .toric import (
    ConvergenceError,
    SteadyState,
    ToricDecision,
    TreeConstants,
    birch_point,
    is_toric,
    lyapunov_value,
    ode_trajectory,
    tree_constants,
)
from .locus import (
    BoundReport,
    GlobalBoundResult,
    PsiDomainError,
    PsiOutput,
    PsiPreimage,
    canonical_d0_obasis,
    canonical_j0_obasis,
    global_lower_bound,
    pair_lower_bound,
    psi_hat_inverse,
    psi_map,
    psi_small,
)

__version__ = "0.1.0"
