"""Property tests across dimensions 1 to 48.

A real orthogonal change of basis O leaves the imaginarity of a state
unchanged: it commutes with complex conjugation, so rho - rho* rotates
into O (rho - rho*) O^T.  The skew canonical form must therefore return
the same block values for O A O^T as for A, and `classify` must return
the same verdict, trace norm and fidelity for O rho O^T as for rho.

Both channel paths, the Kraus set and its dilation, must equal the
operator sum sum_m K_m (O rho O^T) K_m^T for any real Kraus set.

`verify_instance` must agree with the per-probe reference loop on any real
orthogonal U, entangling ones included, its cached report must equal, bit
for bit, that of a freshly built equal instance, and on the near-threshold states
its deviation must be half the fidelity deficit 1 - F_I.  Fed any qubit
resource directly, the S and CS gadgets deviate by at least that half, an
observed bound, not a proven one.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_gatesim import probe_loop, random_unitary

from imaginarity import gatesim, linalg, measures, realops, states
from imaginarity.states import DensityMatrix

DIMS = st.integers(min_value=1, max_value=48)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# Repeated, near-repeated, tiny and zero block values are drawn often.
BLOCK_VALUES = st.sampled_from([0.0, 3e-12, 1e-9, 1e-7, 0.1, 0.1 + 1e-9, 0.25, 0.5]) | st.floats(
    min_value=0.0, max_value=1.0
)


def random_orthogonal(dim, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


@st.composite
def skew_spectra(draw):
    dim = draw(DIMS)
    values = draw(st.lists(BLOCK_VALUES, max_size=dim // 2))
    return dim, np.array(values, dtype=float), draw(SEEDS)


@st.composite
def density_matrices(draw):
    dim = draw(DIMS)
    seed = draw(SEEDS)
    kind = draw(st.sampled_from(["random", "real", "max imaginary"] if dim >= 2 else ["random"]))
    if kind == "max imaginary":
        rank = draw(st.integers(min_value=1, max_value=dim // 2))
        return states.gen_max_imaginary(dim, rank, seed), seed
    rho = states.gen_random_density(dim, seed)
    # Re(rho) = (rho + rho*) / 2 is again a state, and a real one.
    return (DensityMatrix(rho.matrix.real) if kind == "real" else rho), seed


@settings(max_examples=80, deadline=None)
@given(skew_spectra())
# A block just above the cutoff, spread over the near-kernel: cutting clusters
# at couplings up to the cutoff itself lost 1.8e-12 of it.
@example((13, np.array([3e-12, 1.0]), 0))
def test_skew_canonical_block_values_are_rotation_invariant(case):
    dim, values, seed = case
    canon = np.zeros((dim, dim))
    idx = 2 * np.arange(len(values))
    canon[idx, idx + 1] = -values
    canon[idx + 1, idx] = values
    o = random_orthogonal(dim, seed)
    form = linalg.skew_canonical(o @ canon @ o.T)
    expected = np.sort(np.concatenate([values, np.zeros(dim // 2 - len(values))]))[::-1]
    assert np.max(np.abs(form.block_values - expected), initial=0.0) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(density_matrices())
def test_classify_is_invariant_under_real_orthogonal_rotation(case):
    rho, seed = case
    o = random_orthogonal(rho.dim, seed + 1)
    before = measures.classify(rho)
    after = measures.classify(DensityMatrix(o @ rho.matrix @ o.T))
    assert after.verdict == before.verdict
    assert abs(after.imag_trace_norm - before.imag_trace_norm) <= 1e-12
    assert abs(after.imag_fidelity - before.imag_fidelity) <= 1e-12


@st.composite
def real_channels(draw):
    """The fixed 0/1 family, or a dense set cut from a random isometry."""
    dim = draw(st.integers(min_value=2, max_value=48))
    seed = draw(SEEDS)
    if draw(st.booleans()):
        return realops.build_kraus(dim), seed
    out = draw(st.integers(min_value=1, max_value=3))
    count = -(-dim // out) + draw(st.integers(min_value=0, max_value=2))
    w = random_orthogonal(count * out, seed + 2)[:, :dim]
    return realops.RealKrausSet(dim, out, w.reshape(count, out, dim)), seed


@settings(max_examples=60, deadline=None)
@given(real_channels())
def test_kraus_and_dilation_paths_equal_the_operator_sum(case):
    kraus, seed = case
    rho = states.gen_random_density(kraus.in_dim, seed)
    o = random_orthogonal(kraus.in_dim, seed + 1)
    sigma = o @ rho.matrix @ o.T
    expected = sum(k @ sigma @ k.T for k in kraus.operators)
    via_kraus = realops.apply_kraus(kraus, o, rho).matrix
    via_dilation = realops.apply_dilation(realops.dilate(kraus), o, rho).matrix
    assert np.max(np.abs(via_kraus - expected)) <= 1e-12
    assert np.max(np.abs(via_dilation - expected)) <= 1e-12
    assert np.max(np.abs(via_kraus - via_dilation)) <= 1e-12


@st.composite
def entangling_instances(draw):
    """A random real orthogonal U on [resource 1-3, ancilla 1-2, data 1-5]."""
    dims = [draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 5))]
    seed = draw(SEEDS)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(dims[1]) + 1j * rng.standard_normal(dims[1])
    return gatesim.SimulationInstance(
        unitary=random_orthogonal(int(np.prod(dims)), seed).astype(complex),
        resource=states.gen_random_density(dims[0], seed),
        ancilla_dim=dims[1],
        target=random_unitary(dims[2], rng),
        residual=states.gen_random_density(dims[0], seed + 1),
        out_ancilla=states.PureState(phi / np.linalg.norm(phi)),
    )


@settings(max_examples=60, deadline=None)
@given(entangling_instances())
def test_verify_instance_matches_the_probe_loop(inst):
    n, r = inst.data_dim, inst.residual.dim
    max_dev, residuals = probe_loop(inst)
    report = gatesim.verify_instance(inst)
    assert report.probe_count == n * n
    assert report.residuals.shape == (n * n, r, r)
    assert not report.residuals.flags.writeable
    assert abs(report.max_deviation - max_dev) <= 1e-14
    for got, want in zip(report.residuals, residuals):
        assert np.max(np.abs(got - want)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(entangling_instances(), st.sampled_from([0.0, linalg.EXACT_TOL, linalg.CHECK_TOL, 1.0]))
def test_cached_report_equals_a_fresh_one(inst, tolerance):
    gatesim.verify_instance(inst)
    cached = gatesim.verify_instance(inst, tolerance)
    fresh = gatesim.verify_instance(dataclasses.replace(inst), tolerance)
    assert (cached.holds, cached.probe_count) == (fresh.holds, fresh.probe_count)
    assert np.float64(cached.max_deviation).tobytes() == np.float64(fresh.max_deviation).tobytes()
    assert cached.residuals.tobytes() == fresh.residuals.tobytes()


@pytest.mark.parametrize("d", [2, 8, 16, 64])
def test_gadget_deviation_is_half_the_fidelity_deficit(d):
    # rho = (1 - p) sigma + p I/d with tr[rho rho*] = 9e-10, just under
    # VERDICT_TOL; the S gadget fed its converted state deviates by delta/2.
    p = 1.0 - np.sqrt(1.0 - 9e-10 * d)
    sigma = states.gen_max_imaginary(d, 1, d).matrix
    rho = DensityMatrix((1.0 - p) * sigma + p * np.eye(d) / d)
    delta = 1.0 - measures.classify(rho).imag_fidelity
    inst = gatesim.s_gadget(resource=realops.convert_to_plus_hat(rho).output)
    deviation = gatesim.verify_instance(inst).max_deviation
    assert abs(deviation - delta / 2) <= 1e-5 * delta / 2


@st.composite
def qubit_resources(draw):
    """A qubit state from a Bloch vector in the ball, often near |+i> or |-i>."""
    y = draw(st.floats(-1.0, 1.0) | st.sampled_from([1.0, -1.0, 0.99, -0.99, 1 - 1e-6, 0.0]))
    room = np.sqrt(max(0.0, 1.0 - y * y))
    x, z = (room * draw(st.floats(-1.0, 1.0)) / np.sqrt(2.0) for _ in range(2))
    return states.state_of(states.BlochVector(x, y, z))


@seed(20)
@settings(max_examples=150, deadline=None)
@given(qubit_resources(), st.sampled_from(["s", "cs"]))
def test_gadget_deviation_is_at_least_half_the_fidelity_deficit(rho, gadget):
    # Observed, not proven: a gadget fed any qubit resource directly deviates
    # by at least delta / 2, delta = 1 - F_I, which the optimal conversion
    # attains.  A counterexample is a finding about the verifier or the
    # claim, not a tolerance to loosen.
    delta = 1.0 - measures.classify(rho).imag_fidelity
    inst = {"s": gatesim.s_gadget, "cs": gatesim.cs_gadget}[gadget](resource=rho)
    assert gatesim.verify_instance(inst).max_deviation >= delta / 2 - 1e-12


@st.composite
def max_imaginary_states(draw):
    """The arguments (dim, rank, seed) of `states.gen_max_imaginary`.

    A falsifying example then prints the call that rebuilds its state.
    """
    dim = draw(st.integers(min_value=2, max_value=64))
    rank = draw(st.integers(min_value=1, max_value=dim // 2))
    return dim, rank, draw(SEEDS)


@settings(max_examples=60, deadline=None)
@given(max_imaginary_states())
@example((64, 32, 0))
@example((33, 1, 0))
def test_plus_i_converts_back_to_every_max_imaginary_state(args):
    rho = states.gen_max_imaginary(*args)
    # The reverse direction of "unique up to free operations": with O the
    # alignment and a_m > 0 the block values of Im(rho), the real Kraus set
    # K_m = sqrt(2 a_m) O[[2m + 1, 2m]]^T maps |+i> to rho and |-i> to rho*.
    # The pair order is the alignment's orientation: swapped, the error is 1.
    o = realops.align_for_state(rho)
    values = rho.imag_canonical.block_values
    ops = [
        np.sqrt(2.0 * a) * o[[2 * m + 1, 2 * m]].T for m, a in enumerate(values) if a > 0
    ]
    kraus = realops.RealKrausSet(in_dim=2, out_dim=rho.dim, operators=np.array(ops))
    bound = 16 * rho.dim * np.finfo(float).eps
    out = realops.apply_kraus(kraus, None, states.from_pure(states.plus_i()))
    assert np.max(np.abs(out.matrix - rho.matrix)) <= bound
    out_conj = realops.apply_kraus(kraus, None, states.from_pure(states.minus_i()))
    assert np.max(np.abs(out_conj.matrix - rho.matrix.conj())) <= bound
    assert abs(realops.convert_to_plus_hat(out).fidelity - 1.0) <= bound
