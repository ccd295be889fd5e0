"""quinncalc: exact state-sum computations for TQFTs from finite crossed complexes."""

from .colouring import (
    Colouring,
    boundary_label,
    enumerate_colourings,
    enumerate_relative,
    restrict_colouring,
)
from .extprof import (
    NatTransform,
    Profunctor,
    cobordism_profunctor,
    compose_profunctors,
    identity_profunctor,
    profunctor_iso_check,
    window_nat_transform,
)
from .homotopy import (
    HomotopySequence,
    apply_homotopy,
    compose_homotopies,
    crs_pi1,
    delta2,
    invert_homotopy,
    rel_classes,
)
from .morita import (
    Algebra,
    Bimodule,
    FrobeniusData,
    frobenius_data,
    groupoid_algebra,
    lin2_bimodule,
    quantum_double,
    quantum_double_oracle,
    tensor_over,
)
from .simpset import (
    SimplexRef,
    SimpSet,
    Stratification,
    Window,
    circle,
    glue,
    interval,
    point,
    prism,
    prism_end_matching,
    sphere,
    standard_simplex,
    torus,
    validate_simpset,
    window_support,
)
from .tqft import (
    QuinnMatrix,
    StateSpace,
    closed_invariant,
    chi_pi_component,
    chi_pi_rel_fibre,
    quinn_matrix,
    s_conjugation_check,
    state_space,
)
from . import finalg

__version__ = "0.1.0"
