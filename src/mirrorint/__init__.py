"""Exact-arithmetic integrality certificates for hypergeometric q-coordinates."""

from .landau import (
    FactorialRatioSpec,
    LandauProfile,
    Classification,
    q_ratio,
    delta_at,
    profile,
    classify,
    root_bound_dl,
    harmonic,
)
from .series import TruncatedSeries, IntegralityReport
from .mirror import (
    MirrorMapBundle,
    CaseTwoError,
    build_bundle,
    verify_theorem1,
    root_exponent_for_q,
    reference_exponents,
    nonintegrality_witness,
)
from .zhou import ZhouInstance, enumerate_decompositions, verify_zhou, batch

__version__ = "0.1.0"
