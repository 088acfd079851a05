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
matrices, so these n^2 spanning probes are an exact certificate.  They are
computed from the images of the matrix units |j><k| in one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SimulationInstance:
    """One concrete realization of the simulation equation.

    Register order [resource, ancilla, data]; the input ancilla is fixed to
    the all-zeros basis state of dimension `ancilla_dim`.
    """

    unitary: np.ndarray
    resource: DensityMatrix
    ancilla_dim: int
    target: np.ndarray
    residual: DensityMatrix
    out_ancilla: PureState

    @property
    def data_dim(self) -> int:
        return self.target.shape[0]


def _check_instance(inst: SimulationInstance) -> None:
    u = inst.unitary
    n = u.shape[0]
    if inst.resource.dim * inst.ancilla_dim * inst.data_dim != n:
        raise ValueError(
            f"dimension bookkeeping broken: {inst.resource.dim} * {inst.ancilla_dim} "
            f"* {inst.data_dim} != {n}"
        )
    if inst.residual.dim * inst.out_ancilla.dim * inst.data_dim != n:
        raise ValueError("output-side dimensions inconsistent with the unitary")
    # A NaN fails every `>` test below, so it would pass them unnoticed.
    if not np.all(np.isfinite(u)):
        raise ValueError("instance unitary contains non-finite entries")
    if not np.all(np.isfinite(inst.target)):
        raise ValueError("target matrix contains non-finite entries")
    if np.max(np.abs(u.imag)) > linalg.EXACT_TOL:
        raise ValueError("instance unitary must be real")
    if np.max(np.abs(u.real.T @ u.real - np.eye(n))) > linalg.EXACT_TOL:
        raise ValueError("instance unitary is not orthogonal")
    v = inst.target
    if np.max(np.abs(v.conj().T @ v - np.eye(inst.data_dim))) > linalg.EXACT_TOL:
        raise ValueError("target matrix is not unitary")


def _pair_probes(m_pp, m_qq, m_qp):
    """Images of (|p>+|q>)/sqrt2 and (|p>+i|q>)/sqrt2 under a linear map.

    Takes the images of |p><p|, |q><q| and |q><p|; the map must preserve
    Hermiticity, so that the image of |p><q| is the adjoint of that of
    |q><p|.  Broadcasts over leading axes.
    """
    m_pq = np.swapaxes(m_qp.conj(), -1, -2)
    base = m_pp + m_qq
    return 0.5 * (base + m_pq + m_qp), 0.5 * (base - 1j * m_pq + 1j * m_qp)


@dataclass(frozen=True)
class VerificationReport:
    holds: bool
    max_deviation: float
    probe_count: int
    residuals: np.ndarray

    def residual_uniform(self, tolerance: float = linalg.EXACT_TOL) -> bool:
        # np.max propagates NaN, so a NaN residual reads as not uniform.
        res = self.residuals
        return bool(np.max(np.abs(res - res[0])) <= tolerance)

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "max_deviation": self.max_deviation,
            "probe_count": self.probe_count,
            "residual_uniform": self.residual_uniform(),
        }


def verify_instance(
    inst: SimulationInstance, tolerance: float = linalg.CHECK_TOL
) -> VerificationReport:
    """Evaluate both sides of the simulation equation on the spanning probes.

    The probes are the n basis vectors |j> and, for every pair j < k, the
    superpositions (|j>+|k>)/sqrt2 and (|j>+i|k>)/sqrt2, in that order:
    `probe_count` is n^2.  Both sides are computed once on the matrix units
    |j><k| and combined linearly into the probes.  `max_deviation` is the
    largest entrywise deviation over all probes.  `residuals` is one
    read-only (n^2, r, r) array: per probe, in probe order, the resource
    state left after tracing out ancilla and data, for the
    residual-independence check.
    """
    _check_instance(inst)
    u = inst.unitary
    big, n, r = u.shape[0], inst.data_dim, inst.residual.dim
    # lhs_jk = U (rho (x) |0><0| (x) |j><k|) U^dag = u_rho[j] @ u_dag[k]: the
    # input ancilla selects the columns of U with ancilla index 0.
    cols = u.reshape(big, inst.resource.dim, inst.ancilla_dim, n)[:, :, 0, :]
    u_rho = np.moveaxis(cols, 2, 0) @ inst.resource.matrix
    u_dag = cols.conj().transpose(2, 1, 0)
    # rhs_jk = rho' (x) |0'><0'| (x) V|j><k|V^dag
    phi = inst.out_ancilla.amplitudes
    out_state = np.kron(inst.residual.matrix, np.outer(phi, phi.conj()))
    v = inst.target

    # Row j computes the units |j><k| for k <= j only; both states are
    # Hermitian, so the images of |k><j| are the adjoints.  Besides the
    # diagonal, one row of N x N images is alive at a time.
    diag = np.empty((n, big, big), dtype=complex)
    reduced = np.empty((n, n, r, r), dtype=complex)  # Tr_anc,data[lhs_jk], k <= j
    # Per-probe maxima, reduced by np.max so that a NaN deviation propagates
    # (Python's max(0.0, nan) is 0.0).
    devs = []
    for j in range(n):
        lhs = u_rho[j] @ u_dag[: j + 1]
        rhs = np.einsum("ab,p,ks->kapbs", out_state, v[:, j], v[:, : j + 1].conj().T)
        dev = lhs - rhs.reshape(lhs.shape)
        diag[j] = dev[j]
        devs.append(np.max(np.abs(dev[j])))
        if j:
            for probe in _pair_probes(diag[:j], dev[j], dev[:j]):
                devs.append(np.max(np.abs(probe)))
        reduced[j, : j + 1] = np.trace(
            lhs.reshape(j + 1, r, big // r, r, big // r), axis1=2, axis2=4
        )

    p, q = np.triu_indices(n, 1)
    pair_real, pair_imag = _pair_probes(reduced[p, p], reduced[q, q], reduced[q, p])
    residuals = np.concatenate(
        [reduced[np.arange(n), np.arange(n)],
         np.stack([pair_real, pair_imag], axis=1).reshape(-1, r, r)]
    )
    residuals.setflags(write=False)
    max_dev = float(np.max(devs))
    return VerificationReport(
        holds=max_dev <= tolerance,
        max_deviation=max_dev,
        probe_count=n * n,
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
    """
    report = verify_instance(inst)
    if not report.holds:
        raise ValueError("instance does not verify")
    lhs = overlap_conj(inst.resource)
    res_overlap = overlap_conj(inst.residual)
    angles = np.sort(np.angle(np.linalg.eigvals(inst.target.T @ inst.target)))
    gap = np.max(np.diff(angles, append=angles[0] + 2.0 * np.pi))
    low = max(0.0, -float(np.cos(gap / 2.0)))
    rhs_range = [res_overlap * low**2, res_overlap]
    return {
        "lhs": lhs,
        "rhs_range": rhs_range,
        "max_deviation": max(abs(lhs - r) for r in rhs_range),
    }


# --- phase rigidity ---------------------------------------------------------


@dataclass(frozen=True)
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
    V cannot be simulated with a zero resource.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if not np.max(np.abs(v.conj().T @ v - np.eye(n))) <= linalg.EXACT_TOL:  # NaN fails too
        raise ValueError("input matrix is not unitary")
    w = v.T @ v
    off = w - np.diag(np.diag(w))
    diag = np.diag(w)
    is_phase = (
        float(np.max(np.abs(off))) <= tolerance
        and float(np.max(np.abs(diag - diag[0]))) <= tolerance
    )
    if not is_phase:
        return PhaseRigidityResult(w, False, None, None, False)
    eta = float(np.angle(np.mean(diag)))
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
    no imaginarity is consumed.
    """
    od = np.asarray(data_orthogonal, dtype=complex)
    orr = (
        np.eye(rho.dim, dtype=complex)
        if resource_orthogonal is None
        else np.asarray(resource_orthogonal, dtype=complex)
    )
    return SimulationInstance(
        unitary=np.kron(orr, od),
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
