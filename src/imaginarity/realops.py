"""Real Kraus channels, their optimal alignment, and real unitary dilations.

The fixed Kraus family K_m = |1><2m| + |0><2m+1| (plus |0><d-1| for odd d)
compresses a d-dimensional state onto a qubit.  Composed with a real
orthogonal basis alignment computed from the canonical form of Im(rho), it
attains the best possible fidelity with |+i>:

    <+i| Lambda[rho] |+i> = 1/2 + ||rho - rho*||_1 / 4.

Every channel also carries a Stinespring dilation: the stacked isometry
W = sum_m K_m (x) |m>_E completed to a square real orthogonal matrix, with
the environment initialized to its first basis vector.  `apply_kraus`
(on the stored operators) and `apply_dilation` (on the dilation's unitary)
run the same real contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix


@dataclass(frozen=True)
class RealKrausSet:
    """Trace-preserving family of real rectangular Kraus operators.

    `operators` is one read-only float array of shape (m, out_dim, in_dim)."""

    in_dim: int
    out_dim: int
    operators: np.ndarray

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
        if not dev <= linalg.EXACT_TOL:  # NaN fails too
            raise ValueError(f"Kraus set is not trace preserving (deviation {dev:.3e})")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def to_json(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "operators": self.operators.tolist(),
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

    unitary: np.ndarray
    env_dim: int
    pad_dim: int


def build_kraus(d: int) -> RealKrausSet:
    """The fixed 0/1-valued Kraus family mapping dimension d to a qubit.

    K_m = |1><2m| + |0><2m+1| for m < floor(d/2); odd d adds the rank-1
    remainder |0><d-1|.  Completeness holds exactly (disjoint supports).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    j = np.arange(d)
    row = (j + 1) % 2  # column 2m goes to |1>, column 2m + 1 to |0>
    row[2 * (d // 2):] = 0  # the odd remainder |0><d-1|
    ops = np.zeros(((d + 1) // 2, 2, d))
    ops[j // 2, row, j] = 1.0
    return RealKrausSet(in_dim=d, out_dim=2, operators=ops)


def align_for_state(rho: DensityMatrix) -> np.ndarray:
    """Real orthogonal basis change making the fixed Kraus family optimal.

    Canonicalizes Im(rho) into 2x2 blocks and orients each block so that it
    contributes +a_m to <+i| Lambda[O rho O^T] |+i|>, which sums to the
    optimum 1/2 + ||rho - rho*||_1 / 4.  The canonical form is the state's
    cached one, shared with `measures.imaginarity_trace_norm`.
    """
    form = rho.imag_canonical
    rows = np.arange(form.orthogonal.shape[0])
    rows[: 2 * len(form.block_values)] ^= 1  # swap rows 2m and 2m + 1
    return form.orthogonal[rows]


def _compress(w: np.ndarray, align, rho: DensityMatrix) -> DensityMatrix:
    """sum_e V_e rho V_e^T for V = w O, w real of shape (out, env, in).

    O is the real orthogonal `align` (None: identity).  V meets Re(rho) and
    Im(rho) in two real products, not one product promoted to complex.
    """
    out, _, d = w.shape
    o = np.eye(d) if align is None else np.asarray(align, dtype=float)
    if o.shape != (d, d):
        raise ValueError(f"alignment shape {o.shape} inconsistent with dimension {d}")
    v = w @ o
    rows, flat = v.reshape(-1, d), v.reshape(out, -1)

    def block(part):
        return (rows @ part).reshape(out, -1) @ flat.T

    return DensityMatrix(block(rho.matrix.real) + 1j * block(rho.matrix.imag))


def apply_kraus(kraus: RealKrausSet, align, rho: DensityMatrix) -> DensityMatrix:
    """sum_m K_m (O rho O^T) K_m^T for real orthogonal alignment O."""
    if rho.dim != kraus.in_dim:
        raise ValueError(f"state dimension {rho.dim} != Kraus input dimension {kraus.in_dim}")
    return _compress(kraus.operators.swapaxes(0, 1), align, rho)


@dataclass(frozen=True)
class ConversionResult:
    output: DensityMatrix
    fidelity: float
    kraus: RealKrausSet
    align: np.ndarray


def convert_to_plus_hat(rho: DensityMatrix) -> ConversionResult:
    """Optimal real-channel conversion of rho towards |+i><+i|.

    The achieved fidelity is exactly 1/2 + ||rho - rho*||_1 / 4; it equals
    1 (and the output equals |+i><+i|) iff rho is maximally imaginary.  It
    is read as <+i|out|+i> = 1/2 + Im out[1, 0] for the unit-trace output.
    """
    kraus = build_kraus(rho.dim)
    align = align_for_state(rho)
    output = apply_kraus(kraus, align, rho)
    fidelity = 0.5 + float(output.matrix[1, 0].imag)
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
    w = kraus.operators.swapaxes(0, 1).reshape(total, kraus.in_dim)
    unitary = linalg.orthonormal_complete(w)
    return RealDilation(unitary=unitary, env_dim=e, pad_dim=total - kraus.in_dim)


def apply_dilation(dilation: RealDilation, align, rho: DensityMatrix) -> DensityMatrix:
    """Channel via the dilation path: embed, evolve, trace out environment.

    Must agree with `apply_kraus` for the Kraus set the dilation came from.
    The input occupies the first d coordinates and the padding is zero, so
    only the first d columns of the unitary act.
    """
    total = dilation.unitary.shape[0]
    d = total - dilation.pad_dim
    if rho.dim != d:
        raise ValueError(f"state dimension {rho.dim} != dilation input dimension {d}")
    w = dilation.unitary[:, :d].reshape(total // dilation.env_dim, dilation.env_dim, d)
    return _compress(w, align, rho)
