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
"""

from __future__ import annotations

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
#: state norms, Kraus completeness, instance orthogonality and unitarity,
#: residual uniformity; relative to a_max, the zero cutoff of skew blocks.
EXACT_TOL = 1e-12


def _checked(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):  # complex isfinite tests both parts
        raise ValueError(f"{name} contains non-finite entries")
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


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
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


def _hermitian_part(m) -> np.ndarray:
    """(m + m^dag) / 2 for a square m within CHECK_TOL of Hermitian."""
    m = _as_matrix(m)
    _require_square(m)
    dev = np.max(np.abs(m - m.conj().T), initial=0.0)
    if dev > CHECK_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return (m + m.conj().T) / 2


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
    gram_dev = np.max(np.abs(q.T @ q - np.eye(k)), initial=0.0)
    if gram_dev > CHECK_TOL:
        raise ValueError(f"input columns are not orthonormal (max deviation {gram_dev:.3e})")
    if k == n:
        return q.copy()

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
    three matrix products.  The worst case is one cluster spanning the
    whole matrix (all a_m equal, as for an equal-weight mixture of d/2
    maximally imaginary pure states), which pays the complex eigh and QR
    on top of the real eigh.
    """
    A = _as_real_matrix(a)
    _require_square(A)
    skew_dev = np.max(np.abs(A + A.T), initial=0.0)
    if skew_dev > CHECK_TOL:
        raise ValueError(f"matrix is not skew-symmetric (max deviation {skew_dev:.3e})")
    A = (A - A.T) / 2
    d = A.shape[0]

    g, q = np.linalg.eigh(A.T @ A)
    q = q[:, ::-1]
    cutoff = EXACT_TOL * max(1.0, float(np.sqrt(np.max(g, initial=0.0))))
    t = q.T @ A @ q
    o = q.T  # rows of the result; the cluster step rewrites its own rows

    # coupling[b - 1] = max |t[:b, b:]|, the largest entry across boundary b.
    # Every entry dropped by a cut is at most cutoff / d, so all of them
    # together have Frobenius norm at most the cutoff.
    tail = np.maximum.accumulate(np.abs(t)[:, ::-1], axis=1)[:, ::-1]
    coupling = np.diagonal(np.maximum.accumulate(tail, axis=0), offset=1)
    cuts = (np.flatnonzero(d * coupling <= cutoff) + 1).tolist()

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
    rest = np.ones(d, dtype=bool)
    rest[top] = False
    return SkewCanonicalForm(
        block_values=np.array([b[0] for b in blocks] + [0.0] * ((d - len(top)) // 2)),
        orthogonal=o[top + np.flatnonzero(rest).tolist()],
        residual_dim=d % 2,
    )
