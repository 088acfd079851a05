"""Real Kraus channels, their optimal alignment, and real unitary dilations.

The fixed Kraus family K_m = |1><2m| + |0><2m+1| (plus |0><d-1| for odd d)
compresses a d-dimensional state onto a qubit.  Composed with a real
orthogonal basis alignment computed from the canonical form of Im(rho), it
attains the best possible fidelity with |+i>:

    <+i| Lambda[rho] |+i> = 1/2 + ||rho - rho*||_1 / 4.

Every channel also carries a Stinespring dilation: the stacked isometry
W = sum_m K_m (x) |m>_E completed to a square real orthogonal matrix, with
the environment initialized to its first basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix, from_pure, plus_i

COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True)
class RealKrausSet:
    """Trace-preserving family of real rectangular Kraus operators."""

    in_dim: int
    out_dim: int
    operators: tuple

    def __post_init__(self):
        ops = np.array(self.operators, dtype=float)
        if len(ops) == 0:
            raise ValueError("Kraus set must contain at least one operator")
        if ops.shape[1:] != (self.out_dim, self.in_dim):
            raise ValueError(
                f"operator shape {ops.shape[1:]} inconsistent with "
                f"({self.out_dim}, {self.in_dim})"
            )
        stacked = ops.reshape(-1, self.in_dim)
        dev = np.max(np.abs(stacked.T @ stacked - np.eye(self.in_dim)))
        if not dev <= COMPLETENESS_TOL:  # NaN fails too
            raise ValueError(f"Kraus set is not trace preserving (deviation {dev:.3e})")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", tuple(ops))

    def to_json(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "operators": np.stack(self.operators).tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RealKrausSet":
        return cls(
            in_dim=int(obj["in_dim"]),
            out_dim=int(obj["out_dim"]),
            operators=obj["operators"],
        )


@dataclass(frozen=True)
class RealDilation:
    """Stinespring dilation of a real Kraus set.

    `unitary` is the orthonormal completion of the stacked isometry's
    columns; its total dimension is out_dim * env_dim, the input living in
    the first in_dim coordinates (pad_dim extra coordinates stay unused).
    Row index order is [output system, environment].
    """

    isometry: np.ndarray
    unitary: np.ndarray
    env_dim: int
    pad_dim: int

    def to_json(self) -> dict:
        return {
            "isometry": self.isometry.tolist(),
            "unitary": self.unitary.tolist(),
            "env_dim": self.env_dim,
            "pad_dim": self.pad_dim,
        }


def build_kraus(d: int) -> RealKrausSet:
    """The fixed 0/1-valued Kraus family mapping dimension d to a qubit.

    K_m = |1><2m| + |0><2m+1| for m < floor(d/2); odd d adds the rank-1
    remainder |0><d-1|.  Completeness holds exactly (disjoint supports).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    ops = []
    for m in range(d // 2):
        k = np.zeros((2, d))
        k[1, 2 * m] = 1.0
        k[0, 2 * m + 1] = 1.0
        ops.append(k)
    if d % 2:
        k = np.zeros((2, d))
        k[0, d - 1] = 1.0
        ops.append(k)
    return RealKrausSet(in_dim=d, out_dim=2, operators=tuple(ops))


def align_for_state(rho: DensityMatrix) -> np.ndarray:
    """Real orthogonal basis change making the fixed Kraus family optimal.

    Canonicalizes Im(rho) into 2x2 blocks and orients each block so that it
    contributes +a_m to <+i| Lambda[O rho O^T] |+i|>, which sums to the
    optimum 1/2 + ||rho - rho*||_1 / 4.  The canonical form is the state's
    cached one, shared with `measures.imaginarity_trace_norm`.
    """
    form = rho.imag_canonical
    o = form.orthogonal.copy()
    for m in range(len(form.block_values)):
        o[[2 * m, 2 * m + 1]] = o[[2 * m + 1, 2 * m]]
    return o


def apply_kraus(kraus: RealKrausSet, align, rho: DensityMatrix) -> DensityMatrix:
    """sum_m K_m (O rho O^T) K_m^T for real orthogonal alignment O."""
    if rho.dim != kraus.in_dim:
        raise ValueError(f"state dimension {rho.dim} != Kraus input dimension {kraus.in_dim}")
    o = np.eye(kraus.in_dim) if align is None else np.asarray(align, dtype=float)
    if o.shape != (kraus.in_dim, kraus.in_dim):
        raise ValueError(f"alignment shape {o.shape} inconsistent with dimension {kraus.in_dim}")
    # M_m = K_m O stacked: the output is sum_m M_m rho M_m^T in one contraction.
    m, out = len(kraus.operators), kraus.out_dim
    aligned = np.concatenate(kraus.operators) @ o
    left = (aligned @ rho.matrix).reshape(m, out, kraus.in_dim)
    return DensityMatrix(
        np.einsum("moj,mpj->op", left, aligned.reshape(m, out, kraus.in_dim))
    )


@dataclass(frozen=True)
class ConversionResult:
    output: DensityMatrix
    fidelity: float
    kraus: RealKrausSet
    align: np.ndarray


def convert_to_plus_hat(rho: DensityMatrix) -> ConversionResult:
    """Optimal real-channel conversion of rho towards |+i><+i|.

    The achieved fidelity is exactly 1/2 + ||rho - rho*||_1 / 4; it equals
    1 (and the output equals |+i><+i|) iff rho is maximally imaginary.
    """
    kraus = build_kraus(rho.dim)
    align = align_for_state(rho)
    output = apply_kraus(kraus, align, rho)
    target = from_pure(plus_i()).matrix
    fidelity = float(np.trace(target @ output.matrix).real)
    return ConversionResult(output=output, fidelity=fidelity, kraus=kraus, align=align)


def dilate(kraus: RealKrausSet) -> RealDilation:
    """Real orthogonal dilation W = sum_m K_m (x) |m>_E, completed to square.

    The environment dimension equals the number of Kraus operators; the
    completion adds pad_dim = out_dim * env_dim - in_dim unused input
    coordinates.
    """
    e = len(kraus.operators)
    total = kraus.out_dim * e
    # Row (o, m) of W is row o of K_m.
    w = np.stack(kraus.operators, axis=1).reshape(total, kraus.in_dim)
    unitary = linalg.orthonormal_complete(w)
    return RealDilation(
        isometry=w,
        unitary=unitary,
        env_dim=e,
        pad_dim=total - kraus.in_dim,
    )


def apply_dilation(dilation: RealDilation, align, rho: DensityMatrix) -> DensityMatrix:
    """Channel via the dilation path: embed, evolve, trace out environment.

    Must agree with `apply_kraus` for the Kraus set the dilation came from.
    """
    total = dilation.unitary.shape[0]
    d = total - dilation.pad_dim
    if rho.dim != d:
        raise ValueError(f"state dimension {rho.dim} != dilation input dimension {d}")
    o = np.eye(d) if align is None else np.asarray(align, dtype=float)
    # The input occupies the first d coordinates and the padding is zero,
    # so only the first d columns of the unitary act.  Only the reduced
    # block of v rho v^T is formed: rows (o, m) summed over m.
    v = dilation.unitary[:, :d] @ o
    shape = (total // dilation.env_dim, dilation.env_dim, d)
    left = (v @ rho.matrix).reshape(shape)
    return DensityMatrix(np.einsum("omk,pmk->op", left, v.reshape(shape)))
