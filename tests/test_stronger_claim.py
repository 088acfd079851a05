"""The abstract's stronger claim, tested through the verifier.

A resource that cannot do the transformation (tr[rho rho*] > 0) leaves real
operations only the real orthogonal gates, up to a global phase:

* the S and CS gadgets, fed any such resource, deviate from their target by
  at least delta / 2, delta = 1 - F_I, an observed bound that the optimal
  conversion attains;
* rigid targets (W = V^T V = e^{i eta} I) verify with every resource;
* a seeded adversary, accept-if-better steps U <- exp(eps K) U over O(4),
  and over O(8) with one ancilla qubit, finds no real orthogonal U that
  deviates less than delta / 2 with the resource (I + yY)/2.

The bound is observed, not proven: a case below it is a finding about the
paper's claim or about the verifier, not a tolerance to loosen.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_checked_once import random_orthogonal

from imaginarity import gatesim, measures, realops, states
from imaginarity.states import DensityMatrix

GADGETS = {"s": gatesim.s_gadget, "cs": gatesim.cs_gadget}


def near_threshold(d, overlap, seed_):
    """(1 - p) sigma + p I/d, sigma maximally imaginary of rank 1, at tr[rho rho*] = overlap."""
    p = 1.0 - np.sqrt(1.0 - overlap * d)  # tr[rho rho*] = (1 - (1 - p)^2) / d
    sigma = states.gen_max_imaginary(d, 1, seed_).matrix
    return DensityMatrix((1.0 - p) * sigma + p * np.eye(d) / d)


@st.composite
def non_universal_states(draw):
    """A state of dimension 2 to 24 with tr[rho rho*] > 0, often near the threshold."""
    d = draw(st.integers(min_value=2, max_value=24))
    s = draw(st.integers(min_value=0, max_value=2**32 - 1))
    kind = draw(st.sampled_from(["random", "real", "near threshold", "mixed max imaginary"]))
    if kind == "near threshold":
        overlap = draw(st.sampled_from([1e-12, 1e-10, 9e-10, 1.1e-9, 1e-6]))
        return near_threshold(d, overlap, s)
    if kind == "mixed max imaginary":
        sigma = states.gen_max_imaginary(d, draw(st.integers(1, d // 2)), s).matrix
        p = draw(st.floats(1e-6, 1.0))
        return DensityMatrix((1.0 - p) * sigma + p * np.eye(d) / d)
    rho = states.gen_random_density(d, s)
    return DensityMatrix(rho.matrix.real) if kind == "real" else rho


@seed(27)
@settings(max_examples=80, deadline=None)
@given(non_universal_states(), st.sampled_from(sorted(GADGETS)))
def test_gadgets_fed_a_converted_zero_resource_deviate_by_half_the_deficit(rho, gadget):
    assert measures.overlap_conj(rho) > 0
    delta = 1.0 - measures.classify(rho).imag_fidelity
    inst = GADGETS[gadget](resource=realops.convert_to_plus_hat(rho).output)
    assert gatesim.verify_instance(inst).max_deviation >= delta / 2 - 1e-12


@pytest.mark.parametrize("d", [2, 3, 8, 16, 33, 64])
@pytest.mark.parametrize("overlap", [1e-12, 9e-10, 1.1e-9])
def test_near_threshold_gadget_deviations_stay_above_half_the_deficit(d, overlap):
    rho = near_threshold(d, overlap, d)
    delta = 1.0 - measures.classify(rho).imag_fidelity
    output = realops.convert_to_plus_hat(rho).output
    for build in GADGETS.values():
        deviation = gatesim.verify_instance(build(resource=output)).max_deviation
        assert deviation >= delta / 2 - 1e-12


def resources(rng):
    """Universal and zero resources of dimension 1 to 5."""
    out = [DensityMatrix(np.eye(1)), states.from_pure(states.plus_i())]
    for d in range(2, 6):
        out += [
            states.gen_random_density(d, int(rng.integers(1000))),
            DensityMatrix(states.gen_random_density(d, int(rng.integers(1000))).matrix.real),
            states.gen_max_imaginary(d, 1, int(rng.integers(1000))),
            near_threshold(d, 9e-10, d),
        ]
    return out


def test_rigid_targets_verify_with_every_resource():
    rng = np.random.default_rng(270)
    for rho in resources(rng):
        for n in (1, 2, 3, 4):
            od = random_orthogonal(n, rng)
            inst = gatesim.real_target_instance(rho, od, random_orthogonal(rho.dim, rng))
            # a real orthogonal gate times a global phase, simulated by the same real U
            phased = dataclasses.replace(inst, target=np.exp(1j * rng.uniform(-np.pi, np.pi)) * od)
            for case in (inst, phased):
                assert gatesim.phase_rigidity(case.target).is_phase_multiple_of_identity
                report = gatesim.verify_instance(case)
                assert report.holds and report.residual_uniform()
                assert report.max_deviation <= 1e-13


# --- the adversary --------------------------------------------------------------

_OUT_ANCILLA = states.PureState(np.array([1.0, 0.0]))


def _deviation(u, rho, ancilla_dim):
    inst = gatesim.SimulationInstance(
        unitary=u,
        resource=rho,
        ancilla_dim=ancilla_dim,
        target=gatesim.S,
        residual=rho,
        out_ancilla=_OUT_ANCILLA if ancilla_dim == 2 else gatesim._TRIVIAL_OUT_ANCILLA,
    )
    return gatesim.verify_instance(inst).max_deviation


def _rotation(k):
    """exp(K) of a real skew-symmetric K, from the eigenvectors of the Hermitian iK."""
    w, q = np.linalg.eigh(1j * k)
    return ((q * np.exp(-1j * w)) @ q.conj().T).real


def _search(u, rho, ancilla_dim, rng, steps):
    """Accept-if-better steps U <- exp(eps K) U; every deviation it saw, in order."""
    n, eps = len(u), 0.3
    seen = [_deviation(u, rho, ancilla_dim)]
    best = seen[0]
    for _ in range(steps):
        k = rng.standard_normal((n, n))
        k -= k.T
        cand = _rotation(eps * k / np.linalg.norm(k)) @ u
        cand = 1.5 * cand - 0.5 * cand @ cand.T @ cand  # keep it orthogonal to rounding
        seen.append(_deviation(cand, rho, ancilla_dim))
        if seen[-1] < best:
            u, best, eps = cand, seen[-1], 1.5 * eps
        else:
            eps = max(0.9 * eps, 1e-6)
    return seen


def _s_gadget_with_ancilla():
    """The S gadget's U on [resource, ancilla qubit, data], the identity on the ancilla."""
    g = gatesim._S_GADGET.real.reshape(2, 2, 2, 2)
    return np.einsum("rdse,ab->radsbe", g, np.eye(2)).reshape(8, 8)


@pytest.mark.parametrize("y", [0.5, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("ancilla_dim", [1, 2])
def test_adversary_finds_no_real_orthogonal_unitary_below_half_the_deficit(y, ancilla_dim):
    # 3 starts of 300 steps: the gadget itself, the gadget turned by a random
    # rotation of size 0.3, and a random orthogonal; about 0.15 s per case.
    rho = DensityMatrix((np.eye(2) + y * gatesim.Y) / 2)
    half = (1.0 - measures.classify(rho).imag_fidelity) / 2
    assert abs(half - (1.0 - y) / 4) <= 1e-15
    rng = np.random.default_rng(int(1000 * y) + ancilla_dim)
    gadget = gatesim._S_GADGET.real if ancilla_dim == 1 else _s_gadget_with_ancilla()
    n = len(gadget)
    k = rng.standard_normal((n, n))
    k -= k.T
    starts = [gadget, _rotation(0.3 * k / np.linalg.norm(k)) @ gadget, random_orthogonal(n, rng)]
    runs = [_search(u, rho, ancilla_dim, rng, 300) for u in starts]
    floor = min(min(seen) for seen in runs)
    assert floor >= half - 1e-12  # the observed floor: no U beats delta / 2
    assert floor <= half + 1e-15  # and the gadget attains it, about 0 at y = 1
    assert min(runs[1]) < runs[1][0]  # the turned gadget's search descends
