"""Gate library, simulation-instance verifier, phase rigidity, gadgets.

A simulation instance realizes

    U (rho (x) |0..0><0..0| (x) |psi><psi|) U^dag
        = rho' (x) |0'><0'| (x) V |psi><psi| V^dag   for all |psi>,

with U real orthogonal.  Register order is fixed globally as
[resource, ancilla, data] (slow to fast tensor index); all bookkeeping in
this module follows it.

The universal quantifier over |psi> reduces to a finite probe family:
both sides are linear in |psi><psi|, and the basis vectors together with
the real and imaginary pairwise superpositions span all Hermitian
matrices, so these n^2 spanning probes are an exact certificate.  Per
probe, lhs - rhs = F M F^dag with a factor F = [K | L] that is linear in
|psi> (see `verify_instance`), so the n^2 probe factors are sums of the n
basis factors and one batched product gives every deviation.

A `SimulationInstance` is immutable, so its probes run once, on the first
`verify_instance`: it keeps the largest deviation and the residuals, and
every call, the one inside `hs_consistency` included, applies its own
tolerance to them.  An invalid instance caches nothing and raises on every
call; `dataclasses.replace` gives a new instance that verifies afresh.

What depends only on the unitary, the target and the dimensions is shared
across instances: the finiteness, realness, orthogonality and unitarity
checks (the last two read `linalg._isometry_deviation`, which fails an
entry past 1 + CHECK_TOL before a Gram product can overflow), the
(n^2, N, R + ro) probe factors F, their conjugate and a contiguous copy
of its first R columns (the K block the residuals read), and the low end
of `hs_consistency`'s range.  The S and CS gadget
unitaries are module constants, so every pipeline run and every
`simulate` repeats them; each instance then pays only the dimension
checks, the M assembly and the two batched products.  `_fixed_part`
keeps these parts in a bounded LRU cache keyed by content (the bytes and
shapes of both arrays, the resource and ancilla dimensions and ro).  This
is the module's only state:
* bound: 8 entries, the least recently used one is dropped first
  (`_fixed_part.cache_clear()` empties the cache);
* memory: 16 (n^2 N (2 (R + ro) + R) + N^2 + n^2) bytes per entry, the
  factors, their conjugates and the two keys; 657 kB for the largest the
  benchmark verifies (n = 8, N = 32, R = ro = 4), 2.8 kB for the S gadget;
* immutability: the keys are bytes and the arrays read-only, so neither
  a caller's array nor an instance can reach an entry;
* threads: two threads that miss together compute the entry twice, which
  is harmless, since both results are equal.
An invalid pair raises and is never stored, so it raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg
from .measures import UNIVERSAL, ClassificationReport, classify, overlap_conj
from .states import DensityMatrix, PureState, from_pure, plus_i
from .realops import ConversionResult, convert_to_plus_hat

# --- gate library (computational basis) ------------------------------------

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: G = -iY, the real rotation with |+i> / |-i> as -i / +i eigenvectors.
G = np.array([[0, -1], [1, 0]], dtype=complex)
GDG = G.conj().T

I2 = np.eye(2, dtype=complex)
CS = np.kron(np.diag([1.0, 0.0]).astype(complex), I2) + np.kron(
    np.diag([0.0, 1.0]).astype(complex), S
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
_P11 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
CCZ = np.kron(np.eye(4, dtype=complex) - _P11, I2) + np.kron(_P11, Z)

# Fixed objects of the gadgets, built once: the S and CS gadget unitaries
# (read-only, since every instance shares them), the trivial output
# ancilla and the default |+i><+i| resource.
_S_GADGET = np.kron(I2, np.diag([1.0, 0.0]).astype(complex)) + np.kron(
    GDG, np.diag([0.0, 1.0]).astype(complex)
)
_CS_GADGET = np.kron(I2, np.eye(4, dtype=complex) - _P11) + np.kron(GDG, _P11)
_S_GADGET.setflags(write=False)
_CS_GADGET.setflags(write=False)
_TRIVIAL_OUT_ANCILLA = PureState(np.array([1.0 + 0.0j]))
_PLUS_I = from_pure(plus_i())


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


# --- simulation instances ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimulationInstance:
    """One concrete realization of the simulation equation.

    Register order [resource, ancilla, data]; the input ancilla is fixed to
    the all-zeros basis state of dimension `ancilla_dim`.  `unitary` and
    `target` are copied to read-only complex arrays at construction.
    Equality and hashing are by identity.
    """

    unitary: np.ndarray
    resource: DensityMatrix
    ancilla_dim: int
    target: np.ndarray
    residual: DensityMatrix
    out_ancilla: PureState

    def __post_init__(self):
        for name in ("unitary", "target"):
            value = np.array(getattr(self, name), dtype=complex)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def data_dim(self) -> int:
        return self.target.shape[0]

    @linalg._cached
    def _fixed(self):
        """(F, low, conj(F), its K block) of the unitary and target, from `_fixed_part`.

        The dimension checks run here, once per instance; everything that
        depends only on the two arrays and the dimensions is shared.
        """
        u, v = self.unitary, self.target
        n = u.shape[0]
        if self.resource.dim * self.ancilla_dim * self.data_dim != n:
            raise ValueError(
                f"dimension bookkeeping broken: {self.resource.dim} * {self.ancilla_dim} "
                f"* {self.data_dim} != {n}"
            )
        ro = self.residual.dim * self.out_ancilla.dim
        if ro * self.data_dim != n:
            raise ValueError("output-side dimensions inconsistent with the unitary")
        return _fixed_part(
            u.tobytes(), u.shape, v.tobytes(), v.shape, self.resource.dim, self.ancilla_dim, ro
        )

    @linalg._cached
    def _deviations(self):
        """(max_deviation, read-only residuals) over the spanning probes.

        Only these outlive the call: the products are freed on return from
        `_probe_deviations`, before the modulus allocates, and F and its
        conjugates stay in the cache of fixed parts.
        """
        dev, residuals = _probe_deviations(self)
        residuals.setflags(write=False)
        return float(np.abs(dev).max()), residuals  # .max() propagates a NaN deviation


@lru_cache(maxsize=8)
def _fixed_part(u_bytes, u_shape, v_bytes, v_shape, d, ancilla_dim, ro):
    """Checks, spanning-probe factors and `low` of one unitary and target.

    The arrays are rebuilt from their bytes, so an entry depends on nothing
    but its key.  Returns the read-only (n^2, N, d + ro) probe factors F
    (see `verify_instance`), the low end of `hs_consistency`'s range, and,
    read-only too, conj(F) and its contiguous (n^2, N, d) K block, which
    `_probe_deviations` would otherwise form per instance.  Raises
    `ValueError`, and caches nothing, for an invalid pair.
    """
    u = np.frombuffer(u_bytes, dtype=complex).reshape(u_shape)
    v = np.frombuffer(v_bytes, dtype=complex).reshape(v_shape)
    big, n = u.shape[0], v.shape[0]
    # A NaN fails every `>` test below, so it would pass them unnoticed.
    if not np.isfinite(u).all():
        raise ValueError("instance unitary contains non-finite entries")
    if not np.isfinite(v).all():
        raise ValueError("target matrix contains non-finite entries")
    if np.abs(u.imag).max() > linalg.EXACT_TOL:
        raise ValueError("instance unitary must be real")
    if u.shape != (big, big) or not linalg._isometry_deviation(u.real) <= linalg.EXACT_TOL:
        raise ValueError("instance unitary is not orthogonal")
    if v.shape != (n, n) or not linalg._isometry_deviation(v) <= linalg.EXACT_TOL:
        raise ValueError("target matrix is not unitary")
    # Basis factors F_j = [K_j | L_j]: K_j is the columns of U with ancilla
    # index 0 and data index j, and L_j = I_ro (x) V|j>.
    f = np.empty((n * n, big, d + ro), dtype=complex)
    basis = f[:n]
    basis[:, :, :d] = np.moveaxis(u.reshape(big, d, ancilla_dim, n)[:, :, 0, :], 2, 0)
    basis[:, :, d:] = (np.eye(ro)[:, None, :] * v.T[:, None, :, None]).reshape(n, big, ro)
    # The pairs p < q in np.triu_indices order, without its fixed cost.
    i = np.arange(n)
    p, q = np.nonzero(i[:, None] < i)
    pairs = f[n:].reshape(-1, 2, big, d + ro)
    np.add(basis[p], basis[q], out=pairs[:, 0])
    np.add(basis[p], 1j * basis[q], out=pairs[:, 1])
    pairs *= np.sqrt(0.5)
    fc = np.conjugate(f)
    kc = np.ascontiguousarray(fc[:, :, :d])
    for a in (f, fc, kc):
        a.setflags(write=False)
    gap = _gram_gap(v)[1]
    return f, max(0.0, -float(np.cos(gap / 2.0))), fc, kc


def _gram_gap(v: np.ndarray) -> tuple[np.ndarray, float]:
    """W = V^T V of a checked unitary V, and g, the largest cyclic gap of W's eigenvalue angles.

    The one reading of W: W is unitary, so its eigenvalues lie on the unit
    circle, all within an arc of 2 pi - g.  That arc sets the range
    [max(0, -cos(g / 2)), 1] of |<psi|W|psi>| (`hs_consistency`), and W is
    e^{i eta} I exactly when it is a point (`phase_rigidity`).
    """
    w = v.T @ v
    angles = np.sort(np.angle(np.linalg.eigvals(w)))
    return w, float(np.max(np.diff(angles, append=angles[:1] + 2.0 * np.pi)))


@dataclass(frozen=True, eq=False)
class VerificationReport:
    holds: bool
    max_deviation: float
    probe_count: int
    residuals: np.ndarray

    def residual_uniform(self, tolerance: float = linalg.EXACT_TOL) -> bool:
        # np.max propagates NaN, so a NaN residual reads as not uniform.
        res = self.residuals
        return bool(np.abs(res - res[0]).max() <= tolerance)

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "max_deviation": self.max_deviation,
            "probe_count": self.probe_count,
            "residual_uniform": self.residual_uniform(),
        }


def _probe_deviations(inst: SimulationInstance):
    """lhs - rhs, shape (n^2, N, N), and the residuals, (n^2, r, r), per probe.

    conj(F) and its K block come from the cache of fixed parts.  With a
    1-dimensional out-ancilla, as in every gadget, sigma is the residual
    times phi0 conj(phi0): the products of the general broadcast, without
    its 4-D temporary.
    """
    f, _, fc, kc = inst._fixed
    rho = inst.resource.matrix
    n2, d, r = f.shape[0], rho.shape[0], inst.residual.dim
    phi = inst.out_ancilla.amplitudes
    ro = r * phi.size
    w = phi[:, None] * phi.conj()
    m = np.zeros((d + ro, d + ro), dtype=complex)
    m[:d, :d] = rho
    if phi.size == 1:  # sigma = rho' (x) |0'><0'| is rho' times a number
        np.negative(inst.residual.matrix * w, out=m[d:, d:])
    else:
        sigma = inst.residual.matrix[:, None, :, None] * w[:, None, :]
        m[d:, d:] = -sigma.reshape(ro, ro)
    fm = f @ m
    # Tr_anc,data[K rho K^dag]: the output side splits as (r, big // r).
    residuals = fm[:, :, :d].reshape(n2, r, -1) @ kc.reshape(n2, r, -1).swapaxes(1, 2)
    return fm @ fc.swapaxes(1, 2), residuals


def verify_instance(
    inst: SimulationInstance, tolerance: float = linalg.CHECK_TOL
) -> VerificationReport:
    """Evaluate both sides of the simulation equation on the spanning probes.

    The probes are the n basis vectors |j> and then, for every pair j < k in
    `np.triu_indices` order, (|j>+|k>)/sqrt2 and (|j>+i|k>)/sqrt2:
    `probe_count` is n^2.  For a probe |psi>, let K = U(. (x) |0> (x) |psi>)
    (N x R) and L = I_ro (x) V|psi> (N x ro), where sigma = rho' (x) |0'><0'|
    has dimension ro.  Then lhs - rhs = K rho K^dag - L sigma L^dag
    = F M F^dag with F = [K | L] and M = rho (+) (-sigma).  F is linear in
    |psi>, so the probe factors are the same combinations of the basis
    factors F_j as the probes are of |j>, and one batched product of the
    (n^2, N, R + ro) factors gives every deviation.

    `max_deviation` is the largest entrywise deviation over all probes.
    `residuals` is one read-only (n^2, r, r) array: per probe, in probe
    order, Tr_anc,data[K rho K^dag], the resource state left after tracing
    out ancilla and data, for the residual-independence check.

    Memory is O(n^2 N^2) complex numbers, since the deviations of all
    probes are held at once: 1 MB at n = 8, N = 32, the largest size the
    benchmark runs, and 16 kB for the CLI's largest gadget, controlled-S
    (n = 4, N = 8).  The peak is the deviations and their modulus.

    The probes run once per instance: the instance keeps `max_deviation`
    and `residuals`, and each call compares them with its own `tolerance`.
    The checks of U and V and the factors come from the module's cache of
    fixed parts, so a fresh instance of a known gadget pays only for M and
    the two batched products.  An invalid instance raises `ValueError` on
    every call.
    """
    max_dev, residuals = inst._deviations
    return VerificationReport(
        holds=max_dev <= tolerance,
        max_deviation=max_dev,
        probe_count=inst.data_dim**2,
        residuals=residuals,
    )


def hs_consistency(inst: SimulationInstance) -> dict:
    """Hilbert-Schmidt consistency of a verified instance, over every |psi>.

    For every unit |psi>, tr[rho rho*] must equal R t with
    R = tr[rho' rho'*] and t = |<psi| W |psi>|^2, W = V^T V.  W is unitary,
    hence normal, so <psi|W|psi> fills the convex hull of its spectrum, a
    polygon inscribed in the unit circle, and |<psi|W|psi>| fills [low, 1]:
    low is the distance from 0 to that hull, max(0, -cos(g/2)) for the
    largest cyclic gap g between neighbouring eigenvalue angles.  The
    deviation |lhs - R t| is convex in t, so its supremum over every |psi>
    is reached at t = low^2 or t = 1, the ends of `rhs_range`.

    The instance must verify at CHECK_TOL, a check that reads the
    deviations an earlier `verify_instance` cached.  `low` depends on V
    alone, so it is computed with the probe factors and cached with them;
    g comes from `_gram_gap`, the reading of W that `phase_rigidity` uses.
    """
    report = verify_instance(inst)
    if not report.holds:
        raise ValueError("instance does not verify")
    lhs = overlap_conj(inst.resource)
    res_overlap = overlap_conj(inst.residual)
    low = inst._fixed[1]
    rhs_range = [res_overlap * low**2, res_overlap]
    return {
        "lhs": lhs,
        "rhs_range": rhs_range,
        "max_deviation": max(abs(lhs - r) for r in rhs_range),
    }


# --- phase rigidity ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseRigidityResult:
    gram: np.ndarray
    is_phase_multiple_of_identity: bool
    eta: Optional[float]
    realified: Optional[np.ndarray]
    realified_is_real: bool

    def to_json(self) -> dict:
        out = {
            "gram_re": self.gram.real.tolist(),
            "gram_im": self.gram.imag.tolist(),
            "is_phase_multiple_of_identity": self.is_phase_multiple_of_identity,
            "eta": self.eta,
            "realified_is_real": self.realified_is_real,
        }
        if self.realified is not None:
            out["realified_re"] = self.realified.real.tolist()
            out["realified_im"] = self.realified.imag.tolist()
        return out


def phase_rigidity(v, tolerance: float = linalg.CHECK_TOL) -> PhaseRigidityResult:
    """Analyze W = V^T V of a unitary V.

    If W = e^{i eta} I, then V' = e^{-i eta / 2} V is real orthogonal: V can
    only differ from a real orthogonal matrix by a global phase.  Otherwise
    V cannot be simulated with a zero resource.  W is read as
    `hs_consistency` reads it (`_gram_gap`): it counts as e^{i eta} I when
    its eigenvalue angles lie within an arc of at most `tolerance`, and eta
    is then the angle of the mean of its diagonal.  Raises `ValueError`
    unless V is a square, 2-D unitary within EXACT_TOL
    (`linalg._isometry_deviation`: a NaN entry, or an |Re| or |Im| past
    1 + CHECK_TOL, fails before the Gram product V^dag V could overflow).
    """
    v = np.asarray(v, dtype=complex)
    linalg._require_square(v, "input matrix")
    if not linalg._isometry_deviation(v) <= linalg.EXACT_TOL:
        raise ValueError("input matrix is not unitary")
    w, gap = _gram_gap(v)
    if not 2.0 * np.pi - gap <= tolerance:
        return PhaseRigidityResult(w, False, None, None, False)
    eta = float(np.angle(np.mean(np.diag(w))))
    realified = np.exp(-0.5j * eta) * v
    # real up to an overall sign: the eta/2 branch may flip it
    is_real = float(np.max(np.abs(realified.imag))) <= max(tolerance, linalg.EXACT_TOL)
    return PhaseRigidityResult(w, True, eta, realified, is_real)


# --- gadgets ----------------------------------------------------------------


def _catalytic(unitary, target, resource: Optional[DensityMatrix]) -> SimulationInstance:
    """A gadget that returns its resource, by default |+i><+i|, untouched."""
    resource = _PLUS_I if resource is None else resource
    return SimulationInstance(
        unitary=unitary,
        resource=resource,
        ancilla_dim=1,
        target=target,
        residual=resource,
        out_ancilla=_TRIVIAL_OUT_ANCILLA,
    )


def s_gadget(resource: Optional[DensityMatrix] = None) -> SimulationInstance:
    """Catalytic S-gate gadget.

    U applies the real rotation G^dag to the resource qubit, controlled on
    the data qubit; with the |+i> catalyst the data register picks up
    exactly the S phase while the catalyst is returned untouched.
    """
    return _catalytic(_S_GADGET, S, resource)


def cs_gadget(resource: Optional[DensityMatrix] = None) -> SimulationInstance:
    """Catalytic controlled-S gadget (doubly controlled G^dag)."""
    return _catalytic(_CS_GADGET, CS, resource)


def cz_from_cs(tolerance: float = linalg.EXACT_TOL) -> VerificationReport:
    """Applying the controlled-S gadget twice simulates controlled-Z."""
    return verify_instance(_catalytic(_CS_GADGET @ _CS_GADGET, CZ, None), tolerance)


def rx_from_s(theta: float) -> float:
    """Max entrywise deviation of S^dag R_y(theta) S from R_x(theta)."""
    return float(np.max(np.abs(SDG @ ry(theta) @ S - rx(theta))))


def real_target_instance(
    rho: DensityMatrix, data_orthogonal, resource_orthogonal=None
) -> SimulationInstance:
    """Trivial instance simulating a real orthogonal target.

    Works for every resource state: U factorizes across the registers, so
    no imaginarity is consumed.  Both orthogonals must be square and pass
    the isometry entry bound (`linalg._within`) before they meet rho or
    each other, so no product can overflow; past the bound `ValueError`
    says, as `verify_instance` would, that the instance unitary is not
    orthogonal.
    U = O_r (x) O_d is the broadcast product `np.kron` forms, without its
    general-shape handling (about 3 us against 14 at d = 4, n = 8).
    """
    od = np.asarray(data_orthogonal, dtype=complex)
    orr = (
        np.eye(rho.dim, dtype=complex)
        if resource_orthogonal is None
        else np.asarray(resource_orthogonal, dtype=complex)
    )
    linalg._require_square(od, "data orthogonal")
    linalg._require_square(orr, "resource orthogonal")
    bound = linalg._ISOMETRY_ENTRY_BOUND
    if not (linalg._within(od, bound) and linalg._within(orr, bound)):
        raise ValueError("instance unitary is not orthogonal")
    size = orr.shape[0] * od.shape[0]
    return SimulationInstance(
        unitary=(orr[:, None, :, None] * od[None, :, None, :]).reshape(size, size),
        resource=rho,
        ancilla_dim=1,
        target=od,
        residual=DensityMatrix(orr @ rho.matrix @ orr.conj().T),
        out_ancilla=_TRIVIAL_OUT_ANCILLA,
    )


# --- end-to-end pipeline ------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    report: ClassificationReport
    best_fidelity: float
    conversion: Optional[ConversionResult]
    gadget_verified: Optional[bool]


def theorem1_pipeline(rho: DensityMatrix, tolerance: float = linalg.VERDICT_TOL) -> PipelineResult:
    """Classify, convert and (for universal resources) run the S gadget.

    Universal inputs are converted to |+i><+i| at fidelity 1 and plugged
    into the catalytic S gadget, which must verify.  Zero-resource inputs
    are refused with the best achievable fidelity, strictly below 1.
    """
    report = classify(rho, tolerance=tolerance)
    best_fidelity = report.imag_fidelity
    if report.verdict != UNIVERSAL:
        return PipelineResult(report, best_fidelity, None, None)
    conversion = convert_to_plus_hat(rho)
    inst = s_gadget(resource=conversion.output)
    check = max(tolerance, linalg.CHECK_TOL)
    verification = verify_instance(inst, tolerance=check)
    verified = verification.holds and verification.residual_uniform(check)
    return PipelineResult(report, best_fidelity, conversion, verified)
