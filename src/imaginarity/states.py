"""Density matrices, pure states and Bloch vectors.

State objects validate their invariants at construction and are immutable
afterwards; constructors reject violations instead of renormalizing, so
drift in downstream channel code surfaces immediately.  Positive
semidefiniteness is tested by a Cholesky factorization of the matrix
shifted by linalg.CHECK_TOL * I, which succeeds exactly when the smallest
eigenvalue exceeds -CHECK_TOL (up to rounding of order d * eps); the full
spectrum is computed only to report a rejection.  A density matrix also
carries the 2x2-block canonical form of its Im(rho), computed once on
first use, which every measure and the optimal alignment read.

All randomness goes through ``numpy.random.default_rng`` (PCG64, 64-bit
seedable); every stochastic generator takes an explicit seed.

Canonical JSON format of a density matrix (used by the CLI and all
serializers): ``{"dim": d, "re": [[...]], "im": [[...]]}`` with `re` and
`im` d x d arrays of reals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    Hermiticity and the trace are checked to within linalg.CHECK_TOL.  PSD
    holds when the Cholesky factorization of (m + m^dag)/2 + CHECK_TOL * I
    exists, i.e. when the smallest eigenvalue lies above -CHECK_TOL.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidationError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise StateValidationError("density matrix contains non-finite entries")
        herm = np.max(np.abs(m - m.conj().T), initial=0.0)
        if herm > linalg.CHECK_TOL:
            raise StateValidationError(f"not Hermitian: max |m - m^dag| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > linalg.CHECK_TOL:
            raise StateValidationError(f"trace is {tr}, expected 1")
        h = (m + m.conj().T) / 2
        try:
            np.linalg.cholesky(h + linalg.CHECK_TOL * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            min_eig = float(np.min(np.linalg.eigvalsh(h)))
            raise StateValidationError(
                f"not positive semidefinite: min eigenvalue {min_eig:.3e}"
            ) from None
        _freeze(self, "matrix", m)

    @cached_property
    def imag_canonical(self) -> linalg.SkewCanonicalForm:
        """Canonical 2x2-block form of the real skew-symmetric Im(rho).

        Computed on first use and shared by every later reader; the arrays
        are read-only, like the matrix they come from.
        """
        form = linalg.skew_canonical(self.matrix.imag)
        form.block_values.setflags(write=False)
        form.orthogonal.setflags(write=False)
        return form

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
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


def basis_state(dim: int, index: int = 0) -> PureState:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


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


def density_from_json(obj) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise StateFormatError("state JSON must be an object")
    try:
        dim = int(obj["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFormatError("field 'dim' missing or not an integer") from exc
    if dim < 1:
        raise StateFormatError(f"field 'dim' must be positive, got {dim}")
    re = _real_grid(obj, "re", dim)
    im = _real_grid(obj, "im", dim)
    return DensityMatrix(re + 1j * im)
