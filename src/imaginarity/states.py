"""Density matrices, pure states and Bloch vectors.

State objects validate their invariants at construction and are immutable
afterwards; constructors reject violations instead of renormalizing, so
drift in downstream channel code surfaces immediately.  Positive
semidefiniteness is tested by a Cholesky factorization of the matrix
shifted by linalg.CHECK_TOL * I, which succeeds exactly when the smallest
eigenvalue exceeds -CHECK_TOL (up to rounding of order d * eps); the full
spectrum is computed only to report a rejection.  A density matrix also
carries the 2x2-block canonical form of its Im(rho), computed once on
first use, which every measure and the optimal alignment read.  What
validation proves is not checked again: from d = 3 on the form skips
`linalg.skew_canonical`'s input checks (see `DensityMatrix`).

A qubit, the paper's resource and the output of every optimal
conversion, is the most frequent state, and up to d = 4 the numpy calls
of the general check cost more than their arithmetic.  So a d x d matrix
with 2 <= d <= 4 is first offered to a fast accept in Python scalars
(`_scalar_accepts`), which applies the same tests and accepts only what
the general check (`_validate`) accepts.  It never rejects: anything it
does not accept, invalid or merely near a bound, goes through the
general check, so every rejection and its message come from one place.

All randomness goes through ``numpy.random.default_rng`` (PCG64, 64-bit
seedable); every stochastic generator takes an explicit seed.

Canonical JSON format of a matrix (used by the CLI and all serializers):
``{"dim": d, "re": [[...]], "im": [[...]]}`` with `dim` a positive JSON
integer and `re` and `im` d x d arrays of reals.  `matrix_from_json` is
the one reader of this grammar; the CLI reads density matrices and the
unitaries of `rigidity` through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg


class StateFormatError(ValueError):
    """Raised when serialized state data does not match the JSON grammar."""


class StateValidationError(ValueError):
    """Raised when a state object violates one of its invariants."""


def _freeze(obj, field: str, value: np.ndarray) -> None:
    value = value.copy()
    value.setflags(write=False)
    object.__setattr__(obj, field, value)


def _entry_bound(d: int) -> float:
    """Largest |Re| and |Im| an entry of an accepted d x d matrix can have.

    A Hermitian PSD matrix of trace 1 has |rho_ij| <= 1.  The tolerances
    add at most (d + 2) * CHECK_TOL: d - 1 diagonal entries each down to
    -CHECK_TOL and the trace up to 1 + CHECK_TOL bound the diagonal by
    1 + d * CHECK_TOL, the shift adds one more CHECK_TOL to the
    off-diagonal bound, and the Hermitian deviation half of one.
    """
    return 1.0 + (d + 2) * linalg.CHECK_TOL


#: Entry bounds of the sizes `_scalar_accepts` takes, by d.
_SCALAR_BOUNDS = {d: _entry_bound(d) for d in (2, 3, 4)}

#: Shapes offered to `_scalar_accepts`.  Its loops grow as d^3, the
#: general check's numpy calls hardly at all: at d = 4 they take about
#: 7 us against 19 for the general check, at d = 8 about 27 against 18.
_SCALAR_SHAPES = tuple((d, d) for d in _SCALAR_BOUNDS)


def _scalar_accepts(rows) -> bool:
    """Whether the d x d matrix `rows` (nested lists of complex, 2 <= d <= 4) surely is a state.

    The tests of `_validate` in Python scalars: every |Re| and |Im| within
    the entry bound, which also rules out NaN and inf; the Hermitian
    deviation; the trace; and the Cholesky criterion of h + CHECK_TOL * I
    for the Hermitian part h, formed as `_validate` forms it.  Near a bound
    Python's `abs`, sums and pivots can differ by a few ulps from numpy's
    and LAPACK's, so each test must clear its bound by a margin; nearer
    than that the general check decides.  The Hermitian deviation must
    clear CHECK_TOL by a relative EXACT_TOL.  Products are written x * x:
    float ** raises OverflowError where * gives inf.

    At d = 2 the tests are closed forms.  The trace is `_validate`'s own
    expression.  The pivots are p = h00 + CHECK_TOL > 0, exactly LAPACK's
    first pivot, and the Schur complement h11 + CHECK_TOL - |h10|^2 / p,
    which must clear 0 by a relative EXACT_TOL.

    At d = 3 and 4 one walk over the lower triangle applies every test; the
    order does not matter, since a failure only declines.  numpy may sum
    the trace in another order, so it must clear CHECK_TOL by d * d * eps,
    more than two sums of d entries within the entry bound can differ by.
    A relative margin on each pivot no longer suffices: after a nearly
    singular leading block, a pivot's rounding is amplified by that
    block's condition number.  So the factorization runs on
    h + CHECK_TOL * I with its diagonal D shrunk by a relative EXACT_TOL.
    If it completes, D^-1/2 (h + CHECK_TOL * I) D^-1/2 has no eigenvalue
    below EXACT_TOL less a few d * eps, the factorization's rounding, and
    LAPACK's factorization, in any order of operations, completes on every
    matrix whose scaled form has no eigenvalue below about d * eps (Higham,
    Accuracy and Stability of Numerical Algorithms, Theorem 10.7).
    """
    tol = linalg.CHECK_TOL
    if len(rows) == 2:
        (a, b), (c, e) = rows
        bound = _SCALAR_BOUNDS[2]
        for z in (a, b, c, e):
            if not (-bound <= z.real <= bound and -bound <= z.imag <= bound):
                return False
        herm = max(abs(a - a.conjugate()), abs(b - c.conjugate()), abs(e - e.conjugate()))
        if not herm <= tol * (1.0 - linalg.EXACT_TOL) or abs(a + e - 1.0) > tol:
            return False
        # h + CHECK_TOL * I, with h = (m + m^dag) / 2 formed as `_validate` forms it
        p, h11 = a.real + tol, e.real + tol
        if not p > 0.0:
            return False
        re, im = (c.real + b.real) / 2, (c.imag - b.imag) / 2
        q = (re * re + im * im) / p
        return h11 - q > linalg.EXACT_TOL * (h11 + q)
    d = len(rows)
    bound = _SCALAR_BOUNDS[d]
    limit, keep = tol * (1.0 - linalg.EXACT_TOL), 1.0 - linalg.EXACT_TOL
    trace, factor = 0.0, []  # rows of the lower Cholesky factor of the shrunk h + tol * I
    for i, row in enumerate(rows):
        li = []
        for j, lj in enumerate(factor):
            z, w = row[j], rows[j][i].conjugate()
            if not (
                -bound <= z.real <= bound
                and -bound <= z.imag <= bound
                and -bound <= w.real <= bound
                and -bound <= w.imag <= bound
                and abs(z - w) <= limit
            ):
                return False
            z = (z + w) / 2
            for k in range(j):
                z -= li[k] * lj[k].conjugate()
            li.append(z / lj[j])
        z = row[i]
        # on the diagonal |m - m^dag| is |2 Im|, which also bounds Im
        if not (-bound <= z.real <= bound and abs(z.imag + z.imag) <= limit):
            return False
        trace += z
        p = (z.real + tol) * keep
        for x in li:
            p -= x.real * x.real + x.imag * x.imag
        if not p > 0.0:
            return False
        li.append(math.sqrt(p))
        factor.append(li)
    return abs(trace - 1.0) <= tol - d * d * math.ulp(1.0)


def _validate(m: np.ndarray) -> None:
    """Raise StateValidationError unless the complex array m is a density matrix.

    m is C-contiguous.  Finiteness and the entry bound take one pass over
    its reals, `linalg._within`, which a NaN fails and past which inf
    lies; only a failure pays a second pass, so NaN and inf keep their own
    message.  A finite matrix past the bound is never factored, since its
    pivots could overflow, but the checks still run in order, with
    overflow to inf allowed, so its message names the first check it
    fails; a Hermitian unit-trace one fails PSD (`_entry_bound`).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"density matrix must be square, got shape {m.shape}")
    if linalg._within(m, _entry_bound(m.shape[0])):
        _check(m, factor=True)
        return
    if not np.isfinite(m).all():
        raise StateValidationError("density matrix contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        _check(m, factor=False)


def _check(m: np.ndarray, factor: bool) -> None:
    """The Hermitian, trace and PSD checks of a finite m, in that order.

    Without `factor` the PSD check fails without a factorization.  The
    factor's diagonal is read as well: LAPACK can return a factor holding
    inf or NaN, instead of failing, when a pivot overflows.
    """
    herm, h = linalg._symmetric_part(m)
    if herm > linalg.CHECK_TOL:
        raise StateValidationError(f"not Hermitian: max |m - m^dag| = {herm:.3e}")
    tr = complex(m.trace())
    if abs(tr - 1.0) > linalg.CHECK_TOL:
        raise StateValidationError(f"trace is {tr}, expected 1")
    if factor:
        h.flat[:: m.shape[0] + 1] += linalg.CHECK_TOL
        try:
            # h is Hermitian, so the F-contiguous h.T is conj(h): it has the
            # same pivots, and numpy need not transpose it into LAPACK order.
            if np.isfinite(np.linalg.cholesky(h.T).diagonal()).all():
                return
        except np.linalg.LinAlgError:
            pass
    # halves first: past the entry bound, m + m^dag can overflow
    min_eig = float(np.min(np.linalg.eigvalsh(m / 2 + m.conj().T / 2)))
    raise StateValidationError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Hermiticity and the trace are checked to within linalg.CHECK_TOL.  PSD
    holds when the Cholesky factorization of (m + m^dag)/2 + CHECK_TOL * I
    exists with a finite diagonal, i.e. when the smallest eigenvalue lies
    above -CHECK_TOL.  No real or imaginary part of a state's entries
    exceeds 1 + (d + 2) * CHECK_TOL (`_entry_bound`); the finiteness pass
    tests that bound too, and a matrix past it is never factored.  The
    deviation |m - m^dag| and (m + m^dag)/2 come from one tiled pass
    (`linalg._symmetric_part`), and the factorization is handed the
    F-contiguous transpose of that Hermitian part, its conjugate, which
    has the same pivots and which numpy copies into LAPACK order without
    transposing.  At d = 512 the factorization takes about 10 ms and the
    tiled pass about 5.

    A d x d matrix with 2 <= d <= 4 is first offered to `_scalar_accepts`,
    the same tests on Python scalars from one `tolist()`: a whole
    `DensityMatrix` takes about 3 us at d = 2 and 8 at d = 4, against about
    19 through the general check.  What it does not accept goes through
    the general check, which alone rejects.  Either way the stored matrix
    is the same read-only C-contiguous complex copy.

    An accepted matrix is finite, within the entry bound, and its
    Hermitian deviation |m - m^dag| is within CHECK_TOL, so the imaginary
    part of that deviation, the skew deviation |Im m + (Im m)^T| of
    Im(rho), is too.  Those are `linalg.skew_canonical`'s checks, which
    `imag_canonical` therefore skips from d = 3 on.  Nothing extra is
    stored for it: the form is still computed on first use from the
    stored matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.shape not in _SCALAR_SHAPES or not _scalar_accepts(m.tolist()):
            _validate(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @linalg._cached
    def imag_canonical(self) -> linalg.SkewCanonicalForm:
        """Canonical 2x2-block form of the real skew-symmetric Im(rho).

        Computed on first use and shared by every later reader; the arrays
        are read-only, like the matrix they come from.  Validation has
        passed what `linalg.skew_canonical` checks (see the class
        docstring), so from d = 3 on the skew part, formed as
        `skew_canonical` forms it, goes straight to its core
        (`linalg._canonical_form`): the result is the same bit for bit.  A
        qubit still takes `skew_canonical` and its closed form.
        """
        a = self.matrix.imag
        if len(a) <= 2:
            form = linalg.skew_canonical(a)
        else:
            form = linalg._canonical_form(linalg._skew_part(a))
        form.block_values.setflags(write=False)
        form.orthogonal.setflags(write=False)
        return form

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.size < 1:
            raise StateValidationError("pure state needs at least one amplitude")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise StateValidationError("pure state contains non-finite amplitudes")
        norm2 = float(np.sum(np.abs(a) ** 2))
        if abs(norm2 - 1.0) > linalg.EXACT_TOL:
            raise StateValidationError(f"squared norm is {norm2}, expected 1")
        _freeze(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x**2 + self.y**2 + self.z**2
        if not r2 <= 1.0 + linalg.CHECK_TOL:  # also rejects NaN and inf
            raise StateValidationError(
                f"Bloch vector ({self.x}, {self.y}, {self.z}) lies outside "
                f"the unit ball (norm^2 = {r2})"
            )


# Pauli matrices (local copies; the full gate library lives in gatesim).
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def plus_i() -> PureState:
    """(|0> + i|1>)/sqrt(2), the golden unit of imaginarity."""
    return PureState(np.array([1.0, 1.0j]) / np.sqrt(2.0))


def minus_i() -> PureState:
    """(|0> - i|1>)/sqrt(2)."""
    return PureState(np.array([1.0, -1.0j]) / np.sqrt(2.0))


def from_pure(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    a = psi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def conj_state(rho: DensityMatrix) -> DensityMatrix:
    """Entrywise complex conjugate; again a valid density matrix."""
    return DensityMatrix(rho.matrix.conj())


def bloch_of(rho: DensityMatrix) -> BlochVector:
    if rho.dim != 2:
        raise ValueError(f"Bloch view needs a qubit state, got dimension {rho.dim}")
    m = rho.matrix
    return BlochVector(
        x=float(np.trace(m @ _X).real),
        y=float(np.trace(m @ _Y).real),
        z=float(np.trace(m @ _Z).real),
    )


def state_of(b: BlochVector) -> DensityMatrix:
    m = (np.eye(2, dtype=complex) + b.x * _X + b.y * _Y + b.z * _Z) / 2
    return DensityMatrix(m)


def gen_random_density(dim: int, seed: int) -> DensityMatrix:
    """Full-support random state G G^dag / tr(G G^dag) with Gaussian G."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def gen_max_imaginary(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Random maximally imaginary state: tr[rho rho*] = 0 by construction.

    Draws a random real orthogonal O, forms |v_k> = O (e_{2k} + i e_{2k+1})
    / sqrt(2) for k < rank, and mixes the projectors |v_k><v_k| with random
    convex weights.  The support is orthogonal to its conjugate, which is
    exactly the zero-overlap condition.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if rank < 1 or 2 * rank > dim:
        raise ValueError(f"rank must satisfy 1 <= rank <= dim/2, got rank={rank}, dim={dim}")
    rng = np.random.default_rng(seed)
    o = _random_orthogonal(dim, rng)
    weights = rng.random(rank) + 0.1  # bounded away from zero
    weights = weights / np.sum(weights)
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(rank):
        v = (o[:, 2 * k] + 1j * o[:, 2 * k + 1]) / np.sqrt(2.0)
        m += weights[k] * np.outer(v, v.conj())
    return DensityMatrix(m)


# ---------------------------------------------------------------------------
# canonical JSON grammar


def _real_grid(obj, key: str, dim: int) -> np.ndarray:
    try:
        arr = np.asarray(obj[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFormatError(f"field '{key}' missing or not a numeric array") from exc
    if arr.shape != (dim, dim):
        raise StateFormatError(f"field '{key}' must be a {dim}x{dim} array, got shape {arr.shape}")
    return arr


def density_to_json(rho: DensityMatrix) -> dict:
    return {
        "dim": rho.dim,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    """``re + 1j * im`` of a ``{dim, re, im}`` object, checking the format only.

    `dim` must be a positive JSON integer; a bool, float or string is
    rejected, not coerced.  Whether the matrix is a state, a unitary or
    even finite is for the caller to decide.
    """
    if not isinstance(obj, dict):
        raise StateFormatError("matrix JSON must be an object")
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise StateFormatError("field 'dim' missing or not an integer")
    if dim < 1:
        raise StateFormatError(f"field 'dim' must be positive, got {dim}")
    return _real_grid(obj, "re", dim) + 1j * _real_grid(obj, "im", dim)


def density_from_json(obj) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(obj))
