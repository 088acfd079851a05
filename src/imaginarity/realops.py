"""Real Kraus channels, their optimal alignment, and real unitary dilations.

The fixed Kraus family K_m = |1><2m| + |0><2m+1| (plus |0><d-1| for odd d)
compresses a d-dimensional state onto a qubit.  Composed with a real
orthogonal basis alignment computed from the canonical form of Im(rho), it
attains the best possible fidelity with |+i>:

    <+i| Lambda[rho] |+i> = 1/2 + ||rho - rho*||_1 / 4.

Every channel also carries a Stinespring dilation: the stacked isometry
W = sum_m K_m (x) |m>_E completed to a square real orthogonal matrix, with
the environment initialized to its first basis vector.  A Kraus set's
completeness and a dilation's orthogonality are both read from
`linalg._isometry_deviation`, at EXACT_TOL; a `RealDilation` keeps the
residual it measured, which `convert` reports.  `apply_kraus`
(on the stored operators) and `apply_dilation` (on the dilation's unitary)
run the same real contraction.

The fixed family depends on d alone, so `build_kraus` builds it once per d
and hands out that one frozen set, through a bounded LRU cache of 8
dimensions; the set builds its dilation once, on first use.  This is the
module's only state, and it is safe to share:
* bound: 8 dimensions, the least recently used one is dropped first
  (`build_kraus.cache_clear()` empties the cache);
* memory: about 16 d^2 bytes per entry (8 d^2 for the operators, 8 d^2
  for the dilation's unitary once built), 4 MB at d = 512;
* immutability: the objects are frozen and all their arrays read-only;
* threads: two threads that miss together build the family (or its
  dilation) twice, which is harmless, since both results are equal.
Each d thus pays the completeness check, the orthonormal completion and
the dilation's orthogonality check once, not once per conversion.  A cold
CLI process converts one state, so it builds its channel once anyway and
gains only the row gather below.

Both channel paths multiply the alignment O by the stacked rows W of the
channel.  When every row of W has at most one nonzero, as for the fixed
family (the odd remainder has an empty row, gathered as zero) and its
dilation, W O is a signed row gather of O rather than a d^3 product.
That is detected once per channel object; dense sets keep the product.
So is what the gather may skip: for the fixed family at even d every row
is a unit row, so the gathered rows are neither scaled nor zeroed, which
leaves one numpy operation where there were four.

The rows then meet rho in one stacked real product on each side
(`_compress`): Re(rho) and Im(rho), strided views of the stored matrix,
form one (2, d, d) stack, and the two results are interleaved into the
complex output by one copy.  numpy copies each strided part for BLAS, as
it did when the two parts were two products, so every product has its
old shape and the output its old bits.  At d <= 16 a channel application
takes about 10 us against 14.  One product of the rows with the
interleaved (d, 2d) float view of rho would take one call less, but BLAS
can round a product with 2d columns differently from one with d: on
OpenBLAS 0.3.31 it does at d = 6 and 7, and at most d >= 18 that are not
0, 1 or 7 mod 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .states import DensityMatrix


def _one_hot_rows(rows: np.ndarray):
    """(col, scale, empty) with rows == scale[:, None] * I[col], or None.

    None when some row has more than one nonzero.  An empty row gives
    column 0 with scale 0, and `empty` lists those rows.  What the gather
    can skip is decided here, once per channel: `scale` is None when every
    row's nonzero is 1 (no product), and `empty` is None when no row is
    empty (no fix-up).  The arrays are read-only.
    """
    nonzero = rows != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 1):
        return None
    col = np.argmax(nonzero, axis=1)
    scale = rows[np.arange(len(rows)), col]
    empty = np.flatnonzero(scale == 0)
    for a in (col, scale, empty):
        a.setflags(write=False)
    return col, None if (scale == 1.0).all() else scale, empty if empty.size else None


@dataclass(frozen=True, eq=False)
class RealKrausSet:
    """Trace-preserving family of real rectangular Kraus operators.

    `operators` is one read-only float array of shape (m, out_dim, in_dim),
    copied from the input.  Complex input is accepted only if its
    imaginary parts are at most EXACT_TOL.
    """

    in_dim: int
    out_dim: int
    operators: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.operators)
        if len(ops) == 0:
            raise ValueError("Kraus set must contain at least one operator")
        if ops.shape[1:] != (self.out_dim, self.in_dim):
            raise ValueError(
                f"operator shape {ops.shape[1:]} inconsistent with "
                f"({self.out_dim}, {self.in_dim})"
            )
        stacked = linalg._as_real_matrix(ops.reshape(-1, self.in_dim), "Kraus operators")
        dev = linalg._isometry_deviation(stacked)
        if not dev <= linalg.EXACT_TOL:
            raise ValueError(f"Kraus set is not trace preserving (deviation {dev:.3e})")
        ops = stacked.reshape(ops.shape).copy()
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    def _rows(self) -> np.ndarray:
        """The stacked isometry W: row (o, m) is row o of K_m."""
        return self.operators.swapaxes(0, 1).reshape(-1, self.in_dim)

    @linalg._cached
    def _gather(self):
        return _one_hot_rows(self._rows())

    @linalg._cached
    def _dilation(self) -> "RealDilation":
        """The dilation `dilate` returns, built on first use."""
        w = self._rows()
        unitary = linalg.orthonormal_complete(w)
        return RealDilation(unitary, env_dim=len(self.operators), pad_dim=len(w) - self.in_dim)

    def to_json(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "operators": self.operators.tolist(),
        }


@dataclass(frozen=True, eq=False)
class RealDilation:
    """Stinespring dilation of a real Kraus set.

    `unitary` is the orthonormal completion of the stacked isometry's
    columns; its total dimension is out_dim * env_dim, the input living in
    the first in_dim coordinates (pad_dim extra coordinates stay unused).
    Row index order is [output system, environment].  It is copied at
    construction and read-only, so nothing derived from it goes stale.
    It must be square and orthogonal within EXACT_TOL; the deviation
    max |U^T U - I| measured then is kept as `orthogonality_residual`.
    """

    unitary: np.ndarray
    env_dim: int
    pad_dim: int
    orthogonality_residual: float = field(init=False)

    def __post_init__(self):
        unitary = np.array(linalg._as_real_matrix(self.unitary, "unitary"))
        linalg._require_square(unitary, "unitary")
        residual = linalg._isometry_deviation(unitary)
        if not residual <= linalg.EXACT_TOL:
            raise ValueError(f"unitary is not orthogonal (max deviation {residual:.3e})")
        unitary.setflags(write=False)
        object.__setattr__(self, "unitary", unitary)
        object.__setattr__(self, "orthogonality_residual", residual)

    @linalg._cached
    def _gather(self):
        return _one_hot_rows(self.unitary[:, : len(self.unitary) - self.pad_dim])


@lru_cache(maxsize=8)
def build_kraus(d: int) -> RealKrausSet:
    """The fixed 0/1-valued Kraus family mapping dimension d to a qubit.

    K_m = |1><2m| + |0><2m+1| for m < floor(d/2); odd d adds the rank-1
    remainder |0><d-1|.  Completeness holds exactly (disjoint supports).
    At d = 1 the remainder is the whole family: every state goes to |0><0|,
    at the optimal fidelity 1/2, since a 1x1 state has no imaginarity.
    Every call with the same d returns the same shared, frozen set (see the
    module docstring for the cache).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
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
    cached one, shared with `measures.imaginarity_trace_norm`.  For a
    low-rank state from d = linalg._RANGE_FROM on it may come from the
    range path, so the alignment, the kernel rows and the conversion's
    output agree with those from `linalg.skew_canonical` to rounding only.
    """
    form = rho.imag_canonical
    rows = np.arange(form.orthogonal.shape[0])
    rows[: 2 * len(form.block_values)] ^= 1  # swap rows 2m and 2m + 1
    return form.orthogonal[rows]


def _aligned_rows(w: np.ndarray, gather, o: np.ndarray) -> np.ndarray:
    """The stacked rows of w O, shape (out * env, in), bitwise as w @ o gives them.

    `gather` is None or the one-hot form of w's stacked rows (see
    `_one_hot_rows`), which turns the product into a signed row gather of O.
    """
    if gather is None:
        return (w @ o).reshape(-1, o.shape[1])
    col, scale, empty = gather
    rows = o[col]
    if scale is not None:
        rows *= scale[:, None]
    if empty is not None:
        rows[empty] = 0.0  # +0, as the product gives, not -0
    return rows


def _compress(w: np.ndarray, gather, align, rho: DensityMatrix) -> DensityMatrix:
    """sum_e V_e rho V_e^T for V = w O, w real of shape (out, env, in).

    O is the real orthogonal `align` (None: identity); `gather` is as for
    `_aligned_rows`.  V meets Re(rho) and Im(rho), one (2, d, d) stack of
    strided views, in one stacked real product on each side, not in a
    product promoted to complex; the (2, out, out) result is interleaved
    into the complex output by one copy.  Each product has the shape and
    the bits of a separate product per part.
    """
    out, _, d = w.shape
    o = np.eye(d) if align is None else np.asarray(align, dtype=float)
    if o.shape != (d, d):
        raise ValueError(f"alignment shape {o.shape} inconsistent with dimension {d}")
    rows = _aligned_rows(w, gather, o)
    parts = rho.matrix.view(float).reshape(d, d, 2).transpose(2, 0, 1)
    blocks = (rows @ parts).reshape(2, out, -1) @ rows.reshape(out, -1).T
    return DensityMatrix(blocks.transpose(1, 2, 0).copy().view(complex)[..., 0])


def apply_kraus(kraus: RealKrausSet, align, rho: DensityMatrix) -> DensityMatrix:
    """sum_m K_m (O rho O^T) K_m^T for real orthogonal alignment O."""
    if rho.dim != kraus.in_dim:
        raise ValueError(f"state dimension {rho.dim} != Kraus input dimension {kraus.in_dim}")
    return _compress(kraus.operators.swapaxes(0, 1), kraus._gather, align, rho)


@dataclass(frozen=True, eq=False)
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
    coordinates.  Built once per Kraus set and returned on every call.
    """
    return kraus._dilation


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
    return _compress(w, dilation._gather, align, rho)
