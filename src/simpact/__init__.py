"""Propagative simultaneous-impact resolution for rigid body systems.

The package combines four pieces: covector algebra under the
kinetic-energy metric, propagative impact resolution (elastic
reflection cascades, plastic projection, restitution blending, outcome
enumeration), a midpoint variational time stepper with impact events
and Zeno handling, and a design optimizer that drives contact-normal
pairs to metric orthogonality so that simultaneous impacts resolve
uniquely.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateNormalsError,
    DesignError,
    DimensionError,
    EnergyGainError,
    ImpactLocationError,
    NotPositiveDefiniteError,
    SimpactError,
    StepFailureError,
    VerificationError,
)
from .metric import (
    KineticMetric,
    inner,
    is_feasible,
    norm,
)
from .resolution import (
    CascadePolicy,
    CascadeStatus,
    EnumerationResult,
    ImpactKind,
    ImpactOutcome,
    elastic_cascade,
    enumerate_outcomes,
    inelastic_resolve,
    plastic_resolve,
    reflect,
    two_contact_reflection_bound,
)
from .uniqueness import (
    CommutationReport,
    PairClassification,
    classify_pair,
    indeterminacy_xi,
    pairwise_xi,
    verify_commutation,
)
from .models import (
    BallModel,
    BilliardsModel,
    CradleModel,
    LegTailModel,
    MechModel,
    billiards_build,
    billiards_pair_inner,
    validate_model,
)
from .stepper import (
    ImpactEvent,
    StepperConfig,
    Trajectory,
    discrete_momenta,
    simulate,
)
from .design import (
    DesignProblem,
    OrthogonalityResult,
    billiards_orthogonality_problem,
    legtail_orthogonality_problem,
    solve_orthogonal,
    theta_sweep,
)
