"""What validation has proven is not checked again, and nothing overflows first.

* `DensityMatrix.imag_canonical` hands the skew part of Im(rho) straight to
  `linalg._canonical_form` from d = 3 on, skipping `skew_canonical`'s
  checks.  The form must be that of `skew_canonical(rho.matrix.imag)` bit
  for bit, for odd d, rank-deficient states and states that are Hermitian
  only within CHECK_TOL.
* `realops._compress` meets Re(rho) and Im(rho) in one stacked product.
  `apply_kraus` and `apply_dilation` must give the two separate real
  products' result bit for bit, for the fixed family and for dense sets.
* Entries near the float range make the public `linalg` functions,
  `phase_rigidity` and the instance checks raise `ValueError` before any
  sum or product overflows (the tests run with warnings as errors).
* `linalg._cached`, the lock-free cached attribute, computes once and
  stores nothing when its method raises.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from imaginarity import gatesim, linalg, realops, states
from imaginarity.states import DensityMatrix

TOL = linalg.CHECK_TOL


@st.composite
def validated_states(draw):
    """A state at d = 2..40, often rank-deficient, often with repeated values.

    Half the time an anti-Hermitian perturbation with entries up to 0.45 *
    CHECK_TOL is added: its Hermitian part is zero, so the state stays valid,
    but Im(rho) is skew only within CHECK_TOL.
    """
    d = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "low rank", "equal weights", "real"]))
    if kind == "equal weights":  # one cluster of repeated block values
        rank = draw(st.integers(1, d // 2))
        o, _ = np.linalg.qr(rng.standard_normal((d, d)))
        v = (o[:, 0 : 2 * rank : 2] + 1j * o[:, 1 : 2 * rank : 2]) / np.sqrt(2.0)
        m = v @ v.conj().T / rank
    else:
        rank = {"full": d, "low rank": draw(st.integers(1, max(1, d - 1))), "real": d}[kind]
        g = rng.standard_normal((d, rank)) + (kind != "real") * 1j * rng.standard_normal((d, rank))
        m = g @ g.conj().T
        m /= np.trace(m).real
    if draw(st.booleans()):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        e = (x - x.conj().T) / 2
        e.flat[:: d + 1] /= d  # the diagonal's imaginary parts must not move the trace
        m = m + e * (0.45 * TOL / np.abs(e).max())
    return m


@seed(23)
@settings(max_examples=200, deadline=None)
@given(validated_states())
def test_state_form_is_the_checked_form_bit_for_bit(m):
    rho = DensityMatrix(m)
    form = rho.imag_canonical
    ref = linalg.skew_canonical(rho.matrix.imag)
    assert form.block_values.tobytes() == ref.block_values.tobytes()
    assert form.orthogonal.tobytes() == ref.orthogonal.tobytes()
    assert form.residual_dim == ref.residual_dim


@pytest.mark.parametrize("d", [3, 4, 9, linalg._TILE, linalg._TILE + 1, 130])
def test_state_form_skips_the_checks_from_d_3_on(d):
    # 130 takes the tiled skew part; the others the whole-matrix formula.
    rho = states.gen_random_density(d, d)
    with mock.patch.object(linalg, "skew_canonical", side_effect=AssertionError("checked again")):
        form = rho.imag_canonical
    ref = linalg.skew_canonical(rho.matrix.imag)
    assert form.orthogonal.tobytes() == ref.orthogonal.tobytes()
    assert form.block_values.tobytes() == ref.block_values.tobytes()


def test_qubit_form_still_goes_through_skew_canonical():
    rho = DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    with mock.patch.object(linalg, "skew_canonical", wraps=linalg.skew_canonical) as spy:
        assert rho.imag_canonical.block_values.tolist() == [0.5]
    spy.assert_called_once()


def two_products(w, align, rho):
    """The channel as two real products, one per part of rho, then combined."""
    out, _, d = w.shape
    rows = (w @ align).reshape(-1, d)
    flat = rows.reshape(out, -1)

    def block(part):
        return (rows @ part).reshape(out, -1) @ flat.T

    return block(rho.matrix.real) + 1j * block(rho.matrix.imag)


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def dense_kraus(d, out, env, rng):
    """A trace-preserving set of `env` dense real out x d operators."""
    v, _ = np.linalg.qr(rng.standard_normal((out * env, d)))
    return realops.RealKrausSet(in_dim=d, out_dim=out, operators=v.reshape(out, env, d).swapaxes(0, 1))


def assert_both_paths_equal_two_products(kraus, align, rho):
    w = kraus.operators.swapaxes(0, 1)
    assert realops.apply_kraus(kraus, align, rho).matrix.tobytes() == two_products(w, align, rho).tobytes()
    dil = realops.dilate(kraus)
    total, d = len(dil.unitary), rho.dim
    w = dil.unitary[:, :d].reshape(total // dil.env_dim, dil.env_dim, d)
    assert realops.apply_dilation(dil, align, rho).matrix.tobytes() == two_products(w, align, rho).tobytes()


@pytest.mark.parametrize("d", [*range(1, 41), 64, 66, 90, 100, 130])
def test_fixed_family_is_the_two_products_bit_for_bit(d):
    # One product with the interleaved (d, 2d) view of rho can round
    # differently: on OpenBLAS 0.3.31 it did at d = 6, 7 and at most
    # d >= 18 that are not 0, 1 or 7 mod 8, hence these sizes.
    rng = np.random.default_rng(d)
    rhos = [states.gen_random_density(d, d)] + ([states.gen_max_imaginary(d, 1, d)] if d >= 2 else [])
    for rho in rhos:
        for align in (random_orthogonal(d, rng), realops.align_for_state(rho)):
            assert_both_paths_equal_two_products(realops.build_kraus(d), align, rho)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 8, 18, 21, 33])
@pytest.mark.parametrize("out", [1, 2, 3])
def test_dense_sets_are_the_two_products_bit_for_bit(d, out):
    rng = np.random.default_rng(100 * d + out)
    rho = states.gen_random_density(d, d)
    for env in {-(-d // out), -(-d // out) + 2}:
        kraus = dense_kraus(d, out, env, rng)
        assert kraus._gather is None
        assert_both_paths_equal_two_products(kraus, random_orthogonal(d, rng), rho)


HUGE = [
    [[0.0, 0.0], [0.0, 1e308]],
    [[0.0, -1e200], [1e200, 0.0]],
    [[0.0, 1e308], [-1e308, 0.0]],
    np.diag([0.0, 0.0, 1e308]),
    np.diag([0.0, 0.0, 1e308j]),
]


@pytest.mark.parametrize("a", HUGE, ids=range(len(HUGE)))
@pytest.mark.parametrize(
    "fn", [linalg.skew_canonical, linalg.trace_norm, linalg.hermitian_eig, linalg.orthonormal_complete]
)
def test_public_functions_reject_huge_entries_before_any_overflow(fn, a):
    with pytest.raises(ValueError, match="past 1e\\+100"):
        fn(np.array(a))


def test_entry_limit_itself_is_accepted():
    limit = linalg._ENTRY_LIMIT
    assert linalg.skew_canonical(np.array([[0.0, -limit], [limit, 0.0]])).block_values.tolist() == [limit]
    assert linalg.trace_norm(np.diag([limit, -limit, 0.0])) == 2 * limit
    past = np.nextafter(limit, np.inf)
    with pytest.raises(ValueError, match="past"):
        linalg.trace_norm(np.diag([past, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):  # non-finite keeps its message
        linalg.trace_norm(np.diag([np.inf, 0.0]))


@pytest.mark.parametrize(
    "v", [[[1e308, 0], [0, 1]], [[1, 1e308j], [0, 1]], [[-1e308, 0], [0, -1e308]], [[np.inf, 0], [0, 1]]]
)
def test_rigidity_rejects_huge_entries_before_the_gram_product(v):
    with pytest.raises(ValueError, match="input matrix is not unitary"):
        gatesim.phase_rigidity(np.array(v, dtype=complex))


def test_rigidity_still_accepts_unitaries_at_the_bound():
    v = np.array([[0, 1], [1, 0]]) * np.exp(0.3j)
    assert gatesim.phase_rigidity(v).is_phase_multiple_of_identity


@pytest.mark.parametrize(
    "unitary, target, message",
    [
        (np.diag([1e308, 1.0, 1.0, 1.0]), gatesim.S, "instance unitary is not orthogonal"),
        (np.diag([1e308j, 1.0, 1.0, 1.0]), gatesim.S, "instance unitary must be real"),
        (gatesim._S_GADGET, np.diag([1e308, 1.0]), "target matrix is not unitary"),
        (gatesim._S_GADGET, np.diag([1.0, 1e308j]), "target matrix is not unitary"),
        (np.diag([np.nan, 1.0, 1.0, 1.0]), gatesim.S, "instance unitary contains non-finite"),
    ],
)
def test_instance_checks_reject_huge_entries_before_the_gram_products(unitary, target, message):
    gatesim._fixed_part.cache_clear()
    inst = gatesim._catalytic(unitary, target, None)
    for _ in range(2):  # nothing is cached for an invalid pair
        with pytest.raises(ValueError, match=message):
            gatesim.verify_instance(inst)


class TestCached:
    class Thing:
        calls = 0

        @linalg._cached
        def value(self):
            """The doc."""
            type(self).calls += 1
            return object()

        @linalg._cached
        def broken(self):
            type(self).calls += 1
            raise ValueError("no")

    def test_computes_once_and_stores_on_the_instance(self):
        thing = self.Thing()
        self.Thing.calls = 0
        first = thing.value
        assert thing.value is first and thing.__dict__["value"] is first
        assert self.Thing.calls == 1
        assert self.Thing.__dict__["value"].__doc__ == "The doc."

    def test_a_raising_method_stores_nothing(self):
        thing = self.Thing()
        self.Thing.calls = 0
        for _ in range(2):
            with pytest.raises(ValueError):
                thing.broken
        assert self.Thing.calls == 2 and "broken" not in thing.__dict__

    def test_frozen_state_caches_its_form(self):
        rho = states.gen_random_density(5, 1)
        assert rho.imag_canonical is rho.imag_canonical is rho.__dict__["imag_canonical"]
