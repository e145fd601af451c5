"""Exact computations with groups acting on regular trees.

The package models several groups acting on a d-regular tree with a
legal edge coloring, computes their vertex-stabilizer germs at finite
radius, and studies the k-closure: the group of all tree automorphisms
that look locally, at scale k, like elements of the model group. All
arithmetic is exact (integers and fractions); verdicts are either exact
or explicitly truncation-qualified.
"""

from .errors import (
    AmplitudeMismatch,
    BadElement,
    CenterMismatch,
    DegreeMismatch,
    FactorOutsideGroup,
    IncompatibleBase,
    NotContained,
    NotIntegral,
    NotRegular,
    NotStabilized,
    RadiusMismatch,
    RadiusTooSmall,
    SingularBasis,
    TooLarge,
    TreecloseError,
    ValidationError,
)
from .kclosure import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    KClosureOracleModel,
    Verdict,
    axis_fibers,
    check_k_legal,
    closure_germs_at_targets,
    discreteness_certificate,
    edge_region,
    element_germs_at,
    first_stab_germ_difference,
    germ_closure,
    germ_from_json,
    germ_to_json,
    ipk_check,
    kclosure_equal,
    local_action,
    nondiscreteness_certificate,
    pk_check,
    plusk_generator_germs,
    random_ball_germ,
    random_fiber_auto,
    solve_commutator,
)
from .models import (
    BassSerreModel,
    ConstantLocalModel,
    CoverModel,
    CycleGraph,
    FullAutModel,
    PSL2Model,
    StripGraph,
    build_model,
)
from .permgroup import mulclose, structure_fingerprint
from .tree_core import (
    ROOT,
    Germ,
    VertexAddr,
    ball_size,
    ball_vertices,
    compose,
    geodesic,
    germ_of_map,
    identity_germ,
    invert,
    iterate_ball_germs,
    project_to_path,
    restrict,
    sphere_vertices,
    thicken,
    tree_distance,
)

__version__ = "0.1.0"
