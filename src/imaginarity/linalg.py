"""Dense complex-matrix kernel.

Plain numpy (complex128) throughout.  All functions are pure: inputs are
never mutated and there is no global state, so everything here is safe to
share across threads.  Storage is dense and the decompositions (eigh and
QR) cost O(d^3), which suits dimensions up to a few hundred; the
benchmark runs them at d = 512.  The package takes one skew canonical
form per state (see `states.DensityMatrix.imag_canonical`), from which
the imaginarity trace norm and the optimal alignment are both read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default absolute comparison tolerance; all quantities here are O(1).
DEFAULT_TOL = 1e-10

#: Entrywise bound below which a matrix counts as real.
REALITY_TOL = 1e-12


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _require_real(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if np.max(np.abs(m.imag), initial=0.0) > REALITY_TOL:
        raise ValueError(f"{name} must be real (max |Im| = {np.max(np.abs(m.imag))})")
    return m.real.copy()


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


def hermitian_eig(m, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and sorted
    descending, eigenvectors as columns.
    """
    m = _as_matrix(m)
    _require_square(m)
    dev = np.max(np.abs(m - m.conj().T), initial=0.0)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def trace_norm(m, tol: float = DEFAULT_TOL) -> float:
    """Schatten 1-norm of a Hermitian matrix: sum of |eigenvalues|."""
    w, _ = hermitian_eig(m, tol=tol)
    return float(np.sum(np.abs(w)))


def orthonormal_complete(columns, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend k real orthonormal columns to a full real orthogonal matrix.

    The completion is the trailing columns of a complete QR factorization
    of the input, which makes it deterministic.  The input columns are
    reproduced bitwise in the output.  A square input (k = n) is already
    complete: once validated it is returned as is, with no factorization.
    """
    c = _as_matrix(columns, "columns")
    q = _require_real(c, "columns")
    n, k = q.shape
    if k > n:
        raise ValueError(f"cannot have {k} orthonormal columns in dimension {n}")
    gram_dev = np.max(np.abs(q.T @ q - np.eye(k)), initial=0.0)
    if gram_dev > tol:
        raise ValueError(f"input columns are not orthonormal (max deviation {gram_dev:.3e})")
    if k == n:
        return q

    out, _ = np.linalg.qr(q, mode="complete")
    out[:, :k] = q
    return out


@dataclass(frozen=True)
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


def skew_canonical(a, tol: float = DEFAULT_TOL) -> SkewCanonicalForm:
    """Canonical 2x2-block form of a real skew-symmetric matrix.

    Computed through the Hermitian eigendecomposition of iA: eigenvalues
    come in pairs +/- a_m, and the real and imaginary parts of an
    eigenvector for +a_m span an invariant 2-plane carrying the block
    a_m * [[0, -1], [1, 0]].  One complete QR factorization orthonormalizes
    these Re/Im columns and completes them.
    """
    m = _as_matrix(a)
    _require_square(m)
    A = _require_real(m)
    skew_dev = np.max(np.abs(A + A.T), initial=0.0)
    if skew_dev > tol:
        raise ValueError(f"matrix is not skew-symmetric (max deviation {skew_dev:.3e})")
    A = (A - A.T) / 2
    d = A.shape[0]

    w, v = np.linalg.eigh(1j * A)
    cutoff = 1e-12 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    pos = np.argsort(w)[::-1]
    pos = pos[w[pos] > cutoff]
    vecs = np.sqrt(2.0) * v[:, pos]
    paired = np.empty((d, 2 * len(pos)))
    paired[:, 0::2] = vecs.real
    paired[:, 1::2] = vecs.imag

    # Raw eigenvectors lose orthogonality near the cutoff; QR restores it.
    # Signs from diag(R) keep each column pointing along its input column.
    full, r = np.linalg.qr(paired, mode="complete")
    full[:, : paired.shape[1]] *= np.where(np.diag(r) < 0, -1.0, 1.0)
    n_zero_blocks = (d - paired.shape[1]) // 2
    block_values = np.concatenate([w[pos], np.zeros(n_zero_blocks)])
    return SkewCanonicalForm(
        block_values=block_values,
        orthogonal=full.T,
        residual_dim=d % 2,
    )
