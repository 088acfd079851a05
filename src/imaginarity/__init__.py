"""Toolkit for the imaginarity-assisted universality transformation.

Classifies quantum states as universal or zero resources, constructs the
optimal real channels and real-orthogonal gate gadgets that realize the
transformation, and verifies the analytic identities behind both at desk
scale.
"""

from . import linalg, states, measures, realops, gatesim
from .states import (
    BlochVector,
    DensityMatrix,
    PureState,
    bloch_of,
    conj_state,
    from_pure,
    gen_max_imaginary,
    gen_random_density,
    minus_i,
    plus_i,
    state_of,
)
from .measures import (
    UNIVERSAL,
    ZERO,
    ClassificationReport,
    classify,
    classify_bloch,
    imaginarity_trace_norm,
    overlap_conj,
)
from .realops import (
    RealDilation,
    RealKrausSet,
    align_for_state,
    apply_dilation,
    apply_kraus,
    build_kraus,
    convert_to_plus_hat,
    dilate,
)
from .gatesim import (
    PhaseRigidityResult,
    SimulationInstance,
    cs_gadget,
    phase_rigidity,
    s_gadget,
    theorem1_pipeline,
    verify_instance,
)

__all__ = [
    "linalg",
    "states",
    "measures",
    "realops",
    "gatesim",
    "BlochVector",
    "DensityMatrix",
    "PureState",
    "bloch_of",
    "conj_state",
    "from_pure",
    "gen_max_imaginary",
    "gen_random_density",
    "minus_i",
    "plus_i",
    "state_of",
    "UNIVERSAL",
    "ZERO",
    "ClassificationReport",
    "classify",
    "classify_bloch",
    "imaginarity_trace_norm",
    "overlap_conj",
    "RealDilation",
    "RealKrausSet",
    "align_for_state",
    "apply_dilation",
    "apply_kraus",
    "build_kraus",
    "convert_to_plus_hat",
    "dilate",
    "PhaseRigidityResult",
    "SimulationInstance",
    "cs_gadget",
    "phase_rigidity",
    "s_gadget",
    "theorem1_pipeline",
    "verify_instance",
]

__version__ = "0.1.0"
