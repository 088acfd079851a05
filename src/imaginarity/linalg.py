"""Dense complex-matrix kernel.

Plain numpy, complex128 except for the real inputs of `skew_canonical`
and `orthonormal_complete`, which stay float64.  All functions are pure:
inputs are never mutated and there is no global state, so everything here
is safe to share across threads.  Storage is dense and the decompositions
(eigh and QR) cost O(d^3), which suits dimensions up to a few hundred;
the benchmark runs them at d = 512.  The package takes one skew canonical
form per state (see `states.DensityMatrix.imag_canonical`), from which
the imaginarity trace norm and the optimal alignment are both read.

`skew_canonical` takes that form from one real symmetric eigensolve of
A^T A, which separates distinct block values.  Only clusters of repeated
or near-repeated values, and values too small for the squared problem to
resolve (below about sqrt(eps) times the largest), go through a complex
Hermitian eigensolve and a complete QR, each at the size of its cluster.
The worst case is one cluster spanning the whole matrix (all values
equal), which pays both eigensolves at full size.

Outside the eigensolvers and the d^3 products every pass is O(d^2) and
sized to the cache.  The Hermitian or skew part of a matrix and its
deviation come from `_symmetric_part`, one walk over the lower triangle in
64 x 64 tiles, a row of tiles at a time, which `hermitian_eig`,
`trace_norm`, `skew_canonical` and `states.DensityMatrix` share.  Its
results are bitwise those of the whole-matrix formulas, which at d = 256
and 512 read the transpose with a power-of-two row stride.  The cuts
between clusters come from one pass over |T| and a prefix maximum over
the rows (`_cuts`).  At d = 512, on a 2-core Xeon, a canonical form takes
about 40 ms: about 30 in the real eigh, 6-7 in T = Q^T A Q, 2.5 in A^T A,
2.2-2.5 in the skew check and symmetrization, 0.5-0.7 in the cuts and
0.7-0.8 in the final row gather.

At d <= 16 the arithmetic is nearly free and a canonical form costs its
numpy calls, about a microsecond each: at d = 4 about 25 us, of which
the real eigh takes 7, the skew check and symmetrization 4.3, the input
check 2.3, the two products 3, the cuts 2 and the final row gather 2.
So the glue around them stays in Python where that is cheaper: below
d = 16 the cuts are scanned from T.tolist() (`_scan_cuts`), the kernel
rows are ordered from a Python set, and a real 2x2 input takes its
closed form (`_qubit_canonical`, about 2.5 us against 24).  Each of these
gives the general path's result bit for bit.

`skew_canonical` is its input checks and a core, `_canonical_form`, that
takes the exactly skew part.  A validated density matrix has already
proven what the checks test of its Im(rho): finite entries, and a skew
deviation within CHECK_TOL (it is the imaginary part of the Hermitian
deviation).  So from d = 3 on `states.DensityMatrix.imag_canonical`
forms the skew part as the checks would (`_skew_part`) and calls the
core, which saves the finiteness and entry pass and the deviation pass,
about 8 of the 34 us at d = 4.

Two decisions of the whole package are made here, each in one place.
`_within(m, bound)` is the entry-bound pass: one minimum and one maximum
over the reals of m, which a NaN fails and past which an inf lies.  It
bounds the entries of states (`states._validate`), of the public
functions' inputs (_ENTRY_LIMIT, 1e100, so none of their sums or
products can overflow before a check decides) and of the orthogonals of
`gatesim.real_target_instance`.  `_isometry_deviation(m)` is
max |M^dag M - I|, or inf for an m whose entries no isometry has, without
forming the Gram product that could overflow.  Every orthogonal,
unitary, isometry and dilation the package accepts is tested by it,
against the caller's own tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance policy: every threshold in the package is one of these absolute
# bounds (all the quantities compared are O(1)).  The paper's dichotomy is
# exact; where floating point puts its boundary is decided here only.

#: Bound on tr[rho rho*] for a universal verdict, the default of `classify`,
#: `theorem1_pipeline` and the CLI's --tolerance.  tr[rho rho*] is quadratic
#: in perturbations, so 1e-9 is robust at the dimensions targeted here.
VERDICT_TOL = 1e-9

#: Bound on deviations in input data and in verification: Hermiticity,
#: trace and PSD shift of a density matrix, the Bloch ball, Hermitian, skew
#: and orthonormal inputs, and `verify_instance` and `phase_rigidity`.
CHECK_TOL = 1e-10

#: Bound on deviations in what the package builds exactly: realness, pure
#: state norms, Kraus completeness, dilation orthogonality, instance
#: orthogonality and unitarity, residual uniformity; relative to a_max,
#: the zero cutoff of skew blocks; relative to the bound, the rounding
#: margin of the qubit fast accept.
EXACT_TOL = 1e-12


#: Largest |Re| or |Im| of an entry the public functions accept.  Sums and
#: products of such entries, even summed over any dimension, stay far
#: inside the float range, so none overflows before a check has decided.
_ENTRY_LIMIT = 1e100

#: Largest |Re| or |Im| an entry of an isometry can have, with room for
#: rounding: a matrix past it is no isometry, and its Gram product could
#: overflow.
_ISOMETRY_ENTRY_BOUND = 1.0 + CHECK_TOL


def _within(m: np.ndarray, bound: float) -> bool:
    """Whether every |Re| and |Im| of the float or complex m is at most `bound`.

    One minimum and one maximum over the reals of m, through which NaN
    propagates (so a NaN entry fails) and past which inf lies, called as
    ufunc reductions, which skip the array methods' wrappers: about 2.4 us
    at n <= 32 against 4.6 for |Re| and |Im| tested apart.
    """
    parts = np.ascontiguousarray(m).view(float) if m.dtype.kind == "c" else m
    return (
        -bound <= np.minimum.reduce(parts, axis=None, initial=0.0)
        and np.maximum.reduce(parts, axis=None, initial=0.0) <= bound
    )


def _isometry_deviation(m: np.ndarray) -> float:
    """max |M^dag M - I| of a float or complex n x k matrix m, or inf.

    inf when an |Re| or |Im| of m lies past _ISOMETRY_ENTRY_BOUND or is
    NaN: no isometry has such an entry, and its Gram product, which could
    overflow, is never formed.  Otherwise the result is bit for bit
    np.max(np.abs(m.conj().T @ m - np.eye(k))), with M^T M for a real m.
    Each caller compares it with its own tolerance.
    """
    if not _within(m, _ISOMETRY_ENTRY_BOUND):
        return math.inf
    gram = (m.conj().T if m.dtype.kind == "c" else m.T) @ m
    return float(np.abs(gram - np.eye(len(gram))).max(initial=0.0))


def _checked(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    # Only a failure pays the passes that tell NaN and inf from a large entry.
    if not _within(m, _ENTRY_LIMIT):
        if not np.isfinite(m).all():  # complex isfinite tests both parts
            raise ValueError(f"{name} contains non-finite entries")
        size = max(np.abs(m.real).max(), np.abs(m.imag).max())
        raise ValueError(f"{name} has an entry of size {size:.3e}, past {_ENTRY_LIMIT:.0e}")
    return m


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    return _checked(np.asarray(a, dtype=complex), name)


def _as_real_matrix(a, name: str = "matrix") -> np.ndarray:
    """Real input as it is (no complex copy); complex input with |Im| <= EXACT_TOL."""
    m = np.asarray(a)
    if not np.iscomplexobj(m):
        return _checked(m.astype(float, copy=False), name)
    m = _as_matrix(m, name)
    imag = np.max(np.abs(m.imag), initial=0.0)
    if imag > EXACT_TOL:
        raise ValueError(f"{name} must be real (max |Im| = {imag})")
    return m.real


class _cached:
    """A method computed on an instance's first read, then stored on it.

    `functools.cached_property` without the lock that Python 3.8-3.11 take
    around every first read.  The value goes into the instance's __dict__,
    which shadows this non-data descriptor, so later reads are plain
    attribute reads.  Two threads that read it first together may both
    compute it; the objects that use it are immutable, so both results are
    equal.  A method that raises stores nothing and raises on every read.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in `keep`.

    `dims` lists the subsystem dimensions (slow index first, matching
    `np.kron`); `keep` is a set of subsystem indices to retain.
    """
    m = _as_matrix(m)
    _require_square(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive: {dims}")
    total = int(np.prod(dims))
    if total != m.shape[0]:
        raise ValueError(f"dims {dims} inconsistent with matrix of shape {m.shape}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    t = m.reshape(dims + dims)
    remaining = list(range(n))
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        i = remaining.index(ax)
        t = np.trace(t, axis1=i, axis2=i + len(remaining))
        remaining.pop(i)
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(kept, kept)


#: Side of the square tiles `_symmetric_part` walks.  At d = 512 a row of
#: complex tiles takes 512 KiB, a quarter of a core's 2 MiB L2.
_TILE = 64


def _symmetric_part(m: np.ndarray, skew: bool = False) -> tuple[float, np.ndarray]:
    """(max |m - mirror(m)|, (m + mirror(m)) / 2) for a finite square m.

    mirror(x) is x^dag, or -x^T when `skew` (for real m).  A whole-matrix
    pass reads the transpose a full row apart, which at d = 256 and 512 also
    maps the rows onto a few cache sets.  Here the lower triangle is walked
    in _TILE x _TILE tiles, a row of tiles at a time: the deviation is read
    there only, since |m - mirror(m)| is mirror-symmetric, and the partner
    column above the diagonal is written while both are in cache.  The
    partner is computed by its own mirrored formula, not copied as the
    mirror of the finished row, which would flip the sign of zeros where m
    equals mirror(m) entrywise.  So both results are bitwise those of the
    whole-matrix formula, which runs when d <= _TILE.
    """
    # (m + mirror(m)) / 2 is combine(m, p) / 2 and the deviation split(m, p),
    # where p is the transpose of m, conjugated unless `skew`.
    combine, split = (np.subtract, np.add) if skew else (np.add, np.subtract)
    d = m.shape[0]
    if d <= _TILE:
        p = m.T if skew else m.conj().T
        return float(np.abs(split(m, p)).max(initial=0.0)), combine(m, p) / 2
    transpose = np.positive if skew else np.conjugate  # into a reused buffer
    scratch, mag = np.empty(_TILE * d, m.dtype), np.empty(_TILE * d)
    part = np.empty(m.shape, m.dtype)
    dev = 0.0
    for i in range(0, d, _TILE):
        e = min(i + _TILE, d)
        # the row of tiles i:e up to and including the diagonal
        low, out = m[i:e, :e], part[i:e, :e]
        p = transpose(m[:e, i:e].T, out=scratch[: (e - i) * e].reshape(e - i, e))
        diff = split(low, p, out=out)  # `out` is scratch until the division
        dev = max(dev, float(np.abs(diff, out=mag[: diff.size].reshape(diff.shape)).max()))
        np.divide(combine(low, p, out=out), 2, out=out)
        # its partner column above the diagonal, by its own formula
        p = transpose(m[i:e, :i].T, out=scratch[: i * (e - i)].reshape(i, e - i))
        out = part[:i, i:e]
        np.divide(combine(m[:i, i:e], p, out=out), 2, out=out)
    return dev, part


def _hermitian_part(m) -> np.ndarray:
    """(m + m^dag) / 2 for a square m within CHECK_TOL of Hermitian."""
    m = _as_matrix(m)
    _require_square(m)
    dev, part = _symmetric_part(m)
    if dev > CHECK_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return part


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and sorted
    descending, eigenvectors as columns.
    """
    w, v = np.linalg.eigh(_hermitian_part(m))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def trace_norm(m) -> float:
    """Schatten 1-norm of a Hermitian matrix: sum of |eigenvalues|.

    Only the eigenvalues are computed, no eigenvectors.
    """
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitian_part(m)))))


def orthonormal_complete(columns) -> np.ndarray:
    """Extend k real orthonormal columns to a full real orthogonal matrix.

    The completion is the trailing columns of a complete QR factorization
    of the input, which makes it deterministic.  The input columns are
    reproduced bitwise in the output.  A square input (k = n) is already
    complete: once validated it is returned as a copy, with no factorization.
    """
    q = _as_real_matrix(columns, "columns")
    n, k = q.shape
    if k > n:
        raise ValueError(f"cannot have {k} orthonormal columns in dimension {n}")
    gram_dev = _isometry_deviation(q)
    if gram_dev > CHECK_TOL:
        raise ValueError(f"input columns are not orthonormal (max deviation {gram_dev:.3e})")
    if k == n:
        return q.copy()

    out, _ = np.linalg.qr(q, mode="complete")
    out[:, :k] = q
    return out


@dataclass(frozen=True, eq=False)
class SkewCanonicalForm:
    """Canonical form of a real skew-symmetric matrix A.

    `orthogonal` O satisfies O A O^T = direct sum of blocks
    a_m * [[0, -1], [1, 0]] (a_m >= 0, descending, zero blocks included)
    followed by a single unpaired zero dimension when the size is odd.
    """

    block_values: np.ndarray
    orthogonal: np.ndarray
    residual_dim: int

    def reconstruct(self) -> np.ndarray:
        """Rebuild the input matrix as O^T (blocks) O."""
        d = self.orthogonal.shape[0]
        canon = np.zeros((d, d))
        for m, a in enumerate(self.block_values):
            canon[2 * m, 2 * m + 1] = -a
            canon[2 * m + 1, 2 * m] = a
        return self.orthogonal.T @ canon @ self.orthogonal


def _dense_canonical(t: np.ndarray, cutoff: float):
    """Block values above `cutoff` and orthogonal rows for skew matrix t.

    Eigenvalues of the Hermitian i*t come in pairs +/- a_m, and the real
    and imaginary parts of an eigenvector for +a_m span an invariant
    2-plane carrying the block a_m * [[0, -1], [1, 0]].  One complete QR
    factorization orthonormalizes these Re/Im columns and completes them.
    """
    w, v = np.linalg.eigh(1j * t)
    pos = np.argsort(w)[::-1]
    pos = pos[w[pos] > cutoff]
    vecs = np.sqrt(2.0) * v[:, pos]
    paired = np.empty((t.shape[0], 2 * len(pos)))
    paired[:, 0::2] = vecs.real
    paired[:, 1::2] = vecs.imag

    # Raw eigenvectors lose orthogonality near the cutoff; QR restores it.
    # Signs from diag(R) keep each column pointing along its input column.
    full, r = np.linalg.qr(paired, mode="complete")
    full[:, : paired.shape[1]] *= np.where(np.diag(r) < 0, -1.0, 1.0)
    return w[pos], full.T


#: Below this size `_cuts` scans the rows of T in Python: at d = 8 the
#: scan takes about 3 us against 11 for the numpy passes, which win from
#: about d = 12 on.  survey_small runs both sides (d <= 8 and d = 16).
_SCAN_BELOW = 16


def _cuts(t: np.ndarray, cutoff: float) -> list:
    """Boundaries b in 1..d-1 with d * |t[i, k]| <= cutoff for all i < b <= k.

    Every entry dropped by such a cut is at most cutoff / d, so all of
    them together have Frobenius norm at most the cutoff.  Boundary b is
    crossed exactly when some row i < b has a coupled entry, one that
    fails the bound, in a column k >= b.  So one pass marks the coupled
    entries, each row keeps its last coupled column (-1 if none), and a
    prefix maximum over the rows tells how far the rows above each
    boundary reach.  An entry that is NaN counts as coupled.  Below
    _SCAN_BELOW the same rule is scanned from `t.tolist()` (`_scan_cuts`),
    from it on it is numpy passes (`_cut_passes`).
    """
    if t.shape[0] < _SCAN_BELOW:
        return _scan_cuts(t.tolist(), cutoff)
    return _cut_passes(t, cutoff)


def _cut_passes(t: np.ndarray, cutoff: float) -> list:
    """The cuts of `_cuts` from numpy passes over t, for d >= 1."""
    d = t.shape[0]
    scaled = np.abs(t)
    scaled *= d
    coupled = ~(scaled <= cutoff)
    del scaled
    last = np.where(coupled.any(axis=1), d - 1 - coupled[:, ::-1].argmax(axis=1), -1)
    reach = np.maximum.accumulate(last[:-1])
    return (np.flatnonzero(reach < np.arange(1, d)) + 1).tolist()


def _scan_cuts(rows: list, cutoff: float) -> list:
    """The cuts of `_cuts` from the rows of t as lists of floats.

    The running reach is the last coupled column of the rows seen so far.
    A row is scanned from the right and stops at its first coupled entry,
    or at the reach or its own diagonal: a column at or left of either
    cannot move the reach past a boundary still ahead.
    """
    d = len(rows)
    cuts, reach = [], 0
    for i, row in enumerate(rows[:-1]):
        for k in range(d - 1, max(reach, i), -1):
            if not abs(row[k]) * d <= cutoff:  # NaN counts as coupled
                reach = k
                break
        if reach <= i:
            cuts.append(i + 1)
    return cuts


def _qubit_canonical(rows: list):
    """The form `skew_canonical` gives a real 2x2 matrix, or None to decide generally.

    `rows` is the matrix as lists of floats.  When it is skew within
    CHECK_TOL (each |a_ij + a_ji|, which also rules out NaN and inf) and
    its part A = [[0, -x], [x, 0]] has |x| < 1, the general path's steps
    are known in closed form: A^T A = x^2 I, whose eigh is exactly
    (x^2, x^2) with eigenvectors I, so Q = I[:, ::-1], T = [[0, x], [-x, 0]]
    and the cutoff is EXACT_TOL.  The block is kept when |x| > EXACT_TOL
    (rows in order when x > 0, swapped when x < 0); otherwise both rows
    are kernel and Q^T is returned as it is.
    """
    (a00, a01), (a10, a11) = rows
    tol = CHECK_TOL
    if not (abs(a00 + a00) <= tol and abs(a11 + a11) <= tol and abs(a01 + a10) <= tol):
        return None
    x = (a10 - a01) / 2
    if not abs(x) < 1.0:
        return None
    kept = abs(x) > EXACT_TOL
    return SkewCanonicalForm(
        block_values=np.array([abs(x) if kept else 0.0]),
        orthogonal=np.array([[1.0, 0.0], [0.0, 1.0]] if kept and x > 0 else [[0.0, 1.0], [1.0, 0.0]]),
        residual_dim=0,
    )


def skew_canonical(a) -> SkewCanonicalForm:
    """Canonical 2x2-block form of a real skew-symmetric matrix.

    Computed from one real symmetric eigendecomposition of A^T A = -A^2,
    whose eigenvalues are the a_m^2, each twice.  In the eigenbasis Q,
    sorted descending, T = Q^T A Q is block diagonal up to rounding.
    Block values at or below the cutoff EXACT_TOL * max(1, a_max) count
    as zero.  The indices split into contiguous clusters, cut wherever no
    entry of T couples the two sides above cutoff / d, so the couplings
    dropped by all cuts together have Frobenius norm at most the cutoff.
    (A cut at the cutoff itself can split a block just above it that is
    spread thinly over many indices.)

    * A cluster of two carries the block |T[s+1, s]|, oriented by swapping
      its two rows when T[s+1, s] < 0.  A cluster of one is kernel.
    * A larger cluster whose T_c has Frobenius norm at most the cutoff is
      kernel too: all its values lie below the cutoff.
    * Any other cluster holds repeated or near-repeated values, or values
      below about sqrt(eps) * a_max that A^T A cannot resolve.  Its T_c is
      put in canonical form through the Hermitian eigendecomposition of
      iT_c and a complete QR, and composed with its rows of Q^T.

    Blocks above the cutoff are stably sorted by value, largest first; the
    zero rows follow.  A well-separated spectrum costs one real eigh and
    three matrix products; the skew check with the symmetrization and the
    cut rule are one O(d^2) pass each (`_symmetric_part`, `_cuts`, which
    below d = 16 scans T.tolist() in Python).  The worst case is one
    cluster spanning the whole matrix (all a_m equal, as for an
    equal-weight mixture of d/2 maximally imaginary pure states), which
    pays the complex eigh and QR on top of the real eigh.  A real 2x2
    input that is skew within CHECK_TOL and whose block value is below 1
    skips all of this: `_qubit_canonical` writes down the same result.
    """
    A = np.asarray(a)
    if A.shape == (2, 2) and A.dtype == np.float64:
        form = _qubit_canonical(A.tolist())
        if form is not None:
            return form
    A = _as_real_matrix(A)
    _require_square(A)
    skew_dev, A = _symmetric_part(A, skew=True)
    if skew_dev > CHECK_TOL:
        raise ValueError(f"matrix is not skew-symmetric (max deviation {skew_dev:.3e})")
    return _canonical_form(A)


def _skew_part(a: np.ndarray) -> np.ndarray:
    """(a - a^T) / 2 of a finite real square a, bitwise as `skew_canonical` forms it.

    Up to _TILE that is the whole-matrix formula of `_symmetric_part`,
    without its deviation pass; above, the tiled walk itself.
    """
    if a.shape[0] <= _TILE:
        return (a - a.T) / 2
    return _symmetric_part(a, skew=True)[1]


def _canonical_form(A: np.ndarray) -> SkewCanonicalForm:
    """The form `skew_canonical` gives, for an exactly skew-symmetric real A.

    A has passed the checks already: it is finite, square and the skew
    part (A - A^T) / 2 of the input, so A^T = -A bit for bit.
    """
    d = A.shape[0]
    g, q = np.linalg.eigh(A.T @ A)
    q = q[:, ::-1]
    cutoff = EXACT_TOL * max(1.0, math.sqrt(max(float(g[-1]), 0.0) if d else 0.0))
    t = q.T @ A @ q
    o = q.T  # rows of the result; the cluster step rewrites its own rows
    cuts = _cuts(t, cutoff)

    blocks = []  # (value, first row, second row) for each cluster [s, e)
    for s, e in zip([0] + cuts, cuts + [d]):
        if e - s == 2:
            side = float(t[s + 1, s])
            if abs(side) > cutoff:
                blocks.append((side, s, s + 1) if side > 0 else (-side, s + 1, s))
        elif e - s > 2 and np.linalg.norm(t[s:e, s:e]) > cutoff:
            values, rows = _dense_canonical(t[s:e, s:e], cutoff)
            o[s:e] = rows @ o[s:e]
            blocks += [(v, s + 2 * k, s + 2 * k + 1) for k, v in enumerate(values.tolist())]

    blocks.sort(key=lambda b: -b[0])  # stable: ties keep their order
    top = [r for _, first, second in blocks for r in (first, second)]
    taken = set(top)
    return SkewCanonicalForm(
        block_values=np.array([b[0] for b in blocks] + [0.0] * ((d - len(top)) // 2)),
        orthogonal=o[top + [r for r in range(d) if r not in taken]],
        residual_dim=d % 2,
    )
