"""Imaginarity measures and the universal-vs-zero classifier.

A state is a universal resource exactly when tr[rho rho*] = 0,
equivalently ||rho - rho*||_1 = 2; every other state is a zero resource
(there is no middle ground).  The three measures are tied together by the
closed forms F_I = 1/2 + ||rho - rho*||_1 / 4 and R = ||rho - rho*||_1 / 2;
`classify` reports all of them, so F_I and R are read from its report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import BlochVector, DensityMatrix

UNIVERSAL = "universal"
ZERO = "zero"


@dataclass(frozen=True)
class ClassificationReport:
    overlap_conj: float
    imag_trace_norm: float
    imag_fidelity: float
    robustness: float
    verdict: str
    tolerance: float

    def to_json(self) -> dict:
        return {
            "overlap_conj": self.overlap_conj,
            "imag_trace_norm": self.imag_trace_norm,
            "imag_fidelity": self.imag_fidelity,
            "robustness": self.robustness,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
        }


def overlap_conj(rho: DensityMatrix) -> float:
    """tr[rho rho*]; zero exactly for maximally imaginary states.

    For Hermitian rho, tr[rho rho*] = sum_ij rho_ij^2, an O(d^2) sum.
    """
    m = rho.matrix
    return float((m * m).sum().real)


def imaginarity_trace_norm(rho: DensityMatrix) -> float:
    """||rho - rho*||_1, in [0, 2].

    rho - rho* = 2i Im(rho), so this is twice the nuclear norm of the real
    skew-symmetric Im(rho), whose singular values are its block values a_m,
    each twice: the norm is 4 sum_m a_m, read from the state's cached
    canonical form (`DensityMatrix.imag_canonical`), which the optimal
    alignment reuses.
    """
    return 4.0 * float(rho.imag_canonical.block_values.sum())


def classify(rho: DensityMatrix, tolerance: float = linalg.VERDICT_TOL) -> ClassificationReport:
    """Full measure report plus the universal/zero verdict.

    All measures are reported even for zero-resource states so that
    near-threshold inputs stay diagnosable.
    """
    overlap = overlap_conj(rho)
    tn = imaginarity_trace_norm(rho)
    return ClassificationReport(
        overlap_conj=overlap,
        imag_trace_norm=tn,
        imag_fidelity=0.5 + tn / 4.0,
        robustness=tn / 2.0,
        verdict=UNIVERSAL if overlap <= tolerance else ZERO,
        tolerance=tolerance,
    )


def classify_bloch(b) -> str:
    """Qubit verdict straight from the Bloch vector.

    For a qubit tr[rho rho*] = (1 + x^2 - y^2 + z^2) / 2, compared with
    VERDICT_TOL as `classify` compares it: universal only near the poles
    |+i><+i| and |-i><-i|.  Accepts a BlochVector or a plain (x, y, z)
    triple, which is checked as one.
    """
    if not isinstance(b, BlochVector):
        b = BlochVector(*(float(c) for c in b))
    overlap = (1.0 + b.x**2 - b.y**2 + b.z**2) / 2.0
    return UNIVERSAL if overlap <= linalg.VERDICT_TOL else ZERO


def orthogonality_tracedist_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> dict:
    """Check tr[rho sigma] = 0 against ||rho - sigma||_1 = 2 independently.

    Both sides are computed from scratch (direct product trace vs
    eigenvalue sum); `equivalence_holds` reports whether the two
    characterizations of orthogonal support agree to within VERDICT_TOL.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    overlap = float(np.trace(rho.matrix @ sigma.matrix).real)
    trace_dist = linalg.trace_norm(rho.matrix - sigma.matrix)
    tol = linalg.VERDICT_TOL
    return {
        "overlap": overlap,
        "trace_dist": trace_dist,
        "equivalence_holds": (overlap <= tol) == (trace_dist >= 2.0 - tol),
    }


def dual_norm_witness(rho: DensityMatrix, sigma: DensityMatrix) -> dict:
    """Optimal measurement witnessing ||rho - sigma||_1.

    Returns the projector M onto the positive eigenspace of rho - sigma and
    the attained value 2 tr[(rho - sigma) M], which equals the trace norm
    (Schatten 1-norm / infinity-norm duality with 0 <= M <= I).
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    diff = rho.matrix - sigma.matrix
    w, v = linalg.hermitian_eig(diff)
    cols = v[:, w > 0]
    m = cols @ cols.conj().T
    value = 2.0 * float(np.trace(diff @ m).real)
    return {"operator": m, "value": value}
