"""The small-d fast paths against the general code they stand in for.

* `states._scalar_accepts`, the Python-scalar check of a d x d density
  matrix with 2 <= d <= 4, may only accept what `states._validate`
  accepts, and the stored matrix must be the same bytes either way.
* `linalg._scan_cuts`, the Python scan of the cut rule below
  `linalg._SCAN_BELOW`, must give the cuts of `linalg._cut_passes`, on
  both sides of that size.
* `linalg._qubit_canonical`, the closed form of a 2x2 skew matrix, must
  give the form of the general eigh path bit for bit.  Complex input
  always takes the general path, so a complex copy of the same matrix is
  the reference.

Entries are drawn near every bound the checks apply (CHECK_TOL offsets)
and at the edges of the float range (subnormals, 1e-154 and 1e154, whose
squares under- and overflow, and +-1e308).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from imaginarity import linalg, states
from imaginarity.states import DensityMatrix, StateValidationError

TOL = linalg.CHECK_TOL
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-154, -1e-154, 1e154, -1e154, 1e308, -1e308]
OFFSETS = [0.0, TOL, -TOL, 0.5 * TOL, -0.5 * TOL, 2.0 * TOL, -2.0 * TOL, 1e-16]


def outcome(m):
    """("ok", stored bytes) or ("rejected", message) of DensityMatrix(m)."""
    try:
        return "ok", DensityMatrix(m).matrix.tobytes()
    except StateValidationError as exc:
        return "rejected", str(exc)


def qubit_state(draw):
    kind = draw(st.sampled_from(["bloch", "pole", "mixed", "diagonal"]))
    if kind == "bloch":
        x, y, z = (draw(st.floats(-0.57, 0.57)) for _ in range(3))
    elif kind == "pole":
        x, y, z = 0.0, draw(st.sampled_from([1.0, -1.0])), 0.0
    elif kind == "mixed":
        x, y, z = 0.0, 0.0, 0.0
    else:
        x, y, z = 0.0, 0.0, draw(st.sampled_from([1.0, -1.0]))
    return np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2


def seeded_state(draw, d):
    """A seeded full-rank, rank-deficient or maximally imaginary d x d state.

    Or one with its smallest eigenvalue moved to within a small relative
    step of -CHECK_TOL, the trace kept, so that the PSD test decides; a
    Kahan-type base makes its leading blocks nearly singular as well.
    """
    kind = draw(st.sampled_from(["full", "deficient", "max_imaginary", "edge", "kahan_edge"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "max_imaginary":
        return states.gen_max_imaginary(d, draw(st.integers(1, d // 2)), seed).matrix
    if kind == "kahan_edge":
        m = kahan(d, draw(st.sampled_from([1e-2, 1e-3, 1e-4])))
    else:
        rng = np.random.default_rng(seed)
        k = d if kind == "full" else draw(st.integers(1, d - 1))
        g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        m = g @ g.conj().T
        m = m / m.trace().real
    if kind in ("edge", "kahan_edge"):
        w, v = np.linalg.eigh(m)
        step = draw(st.sampled_from([1e-2, 1e-5, 1e-8, 1e-11, 0.0, -1e-11, -1e-5]))
        shift = w[0] + TOL * (1.0 - step)
        m = m - shift * np.outer(v[:, 0], v[:, 0].conj()) + shift * np.outer(v[:, -1], v[:, -1].conj())
        m = (m + m.conj().T) / 2
    return m


@st.composite
def near_small_states(draw):
    """A d x d state, 2 <= d <= 4, then each of its reals kept, offset or replaced.

    At d = 3 and 4 a state has 18 and 32 reals, so most draws change only a
    few of them, and half of the changed matrices are made Hermitian
    again: those lie near the trace and PSD bounds, not past the Hermitian
    one.
    """
    d = draw(st.sampled_from([2, 3, 4]))
    m = qubit_state(draw) if d == 2 else seeded_state(draw, d)
    keep = 6 if d == 2 else draw(st.sampled_from([6, 60]))
    parts = m.view(float).reshape(-1).copy()
    for k in range(parts.size):
        how = draw(st.sampled_from(["keep"] * keep + ["offset"] * 3 + ["special"]))
        if how == "offset":
            parts[k] += draw(st.sampled_from(OFFSETS))
        elif how == "special":
            parts[k] = draw(st.sampled_from(SPECIAL))
    m = parts.view(complex).reshape(d, d)
    if d > 2 and draw(st.booleans()):
        with np.errstate(all="ignore"):
            m = m / 2 + m.conj().T / 2
    return m


def kahan(d, s):
    """Unit-trace Hermitian m whose leading blocks are nearly singular, for small s."""
    c = np.sqrt(1.0 - s * s)
    r = np.triu(np.full((d, d), -c), 1) + np.eye(d)
    r = np.diag(s ** np.arange(d)) @ r
    m = (r.T @ r).astype(complex)
    return m / m.trace().real


@seed(22)
@settings(max_examples=1500, deadline=None)
@given(near_small_states())
@example(np.array([[5e-324, 5e307 + 5e-10j], [5e307 - 5e-10j, 1.0]]))
@example(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
@example(np.array([[0.5 + 0.5 * TOL, 0.0], [0.0, 0.5]]))
@example(np.array([[-TOL, 0.0], [0.0, 1.0 + TOL]]))
@example(np.array([[1.0 + TOL, 0.0], [0.0, -TOL]]))
@example(np.array([[1.0 + 1.5 * TOL, 0.0], [0.0, -1.5 * TOL]]))
@example(np.array([[np.nan, 0.0], [0.0, 1.0]]))
@example(np.array([[0.5, np.inf], [np.inf, 0.5]]))
@example(np.diag([-TOL, 0.5, 0.5 + TOL]).astype(complex))
@example(np.diag([0.25, -TOL, 0.25, 0.5 + TOL]).astype(complex))
@example(np.diag([1.0 + 3 * TOL, -TOL, -TOL, -TOL]).astype(complex))
@example(np.diag([0.5, 0.5, TOL, 0.0]).astype(complex))
@example(np.full((3, 3), 1 / 3, dtype=complex))
@example(kahan(3, 1e-4))
@example(kahan(4, 1e-3))
@example(kahan(4, 1e-5) - 1e-11 * np.eye(4) + 1e-11 * np.diag([1, 1, 1, 0]))
@example(np.array([[0.5, 5e307, 0], [5e307, 0.5, 0], [0, 0, 5e-324]], dtype=complex))
@example(np.array([[0.5, 0, 0], [0, 0.5, np.nan], [0, np.nan, 0]], dtype=complex))
def test_qubit_fast_accept_accepts_only_what_the_general_check_accepts(m):
    accepted = states._scalar_accepts(m.tolist())
    fast = outcome(m)
    with mock.patch.object(states, "_scalar_accepts", return_value=False):
        general = outcome(m)
    assert fast == general
    if accepted:
        assert fast[0] == "ok"


@pytest.mark.parametrize(
    "m",
    [
        [[0.5, -0.5j], [0.5j, 0.5]],  # |+i><+i|
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]],
    ],
)
def test_ordinary_qubit_states_take_the_fast_path(m):
    m = np.array(m, dtype=complex)
    assert states._scalar_accepts(m.tolist())
    with mock.patch.object(states, "_validate", side_effect=AssertionError("general path ran")):
        assert DensityMatrix(m).matrix.tobytes() == m.tobytes()


@pytest.mark.parametrize("d", [3, 4])
def test_ordinary_small_states_take_the_fast_path(d):
    cases = [
        states.gen_max_imaginary(d, 1, d).matrix,
        states.gen_random_density(d, d).matrix,
        np.eye(d, dtype=complex) / d,
        states.from_pure(states.PureState(np.eye(d)[d - 1])).matrix,
    ]
    for m in cases:
        assert states._scalar_accepts(m.tolist())
        with mock.patch.object(states, "_validate", side_effect=AssertionError("general path ran")):
            assert DensityMatrix(m).matrix.tobytes() == m.tobytes()


@pytest.mark.parametrize("d", [1, 5, 8])
def test_other_sizes_take_the_general_check(d):
    m = np.eye(d, dtype=complex) / d
    with mock.patch.object(states, "_scalar_accepts", side_effect=AssertionError("fast path ran")):
        assert DensityMatrix(m).matrix.tobytes() == m.tobytes()


def test_fast_path_leaves_bounds_to_the_general_check():
    # Within EXACT_TOL of the Hermitian bound, and an eigenvalue at exactly
    # -CHECK_TOL in either pivot: the fast path declines, the general check
    # decides.
    herm = np.array([[0.5, TOL], [0.0, 0.5]])
    edges = [np.array([[-TOL, 0.0], [0.0, 1.0 + TOL]]), np.array([[1.0 + TOL, 0.0], [0.0, -TOL]])]
    for m in (herm, *edges):
        assert not states._scalar_accepts(m.astype(complex).tolist())
    DensityMatrix(herm)
    for edge in edges:
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(edge)


@st.composite
def coupled_matrices(draw):
    """T as skew_canonical forms it, perturbed near the cut bound, with NaNs."""
    d = draw(st.integers(min_value=2, max_value=32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((d, d)) * draw(st.sampled_from([1.0, 1e-6, 1e-13]))
    a = (a - a.T) / 2
    g, q = np.linalg.eigh(a.T @ a)
    q = q[:, ::-1]
    t = q.T @ a @ q
    cutoff = linalg.EXACT_TOL * max(1.0, math.sqrt(max(float(g[-1]), 0.0)))
    for _ in range(draw(st.integers(0, 4))):
        i, k = rng.integers(0, d, size=2)
        t[i, k] = draw(
            st.sampled_from([np.nan, 0.0, cutoff / d, -cutoff / d, np.nextafter(cutoff / d, 1.0)])
        )
    if draw(st.booleans()):
        t = np.round(t, draw(st.integers(6, 14)))  # rounded entries: exact zeros and ties
    return t, cutoff


@seed(22)
@settings(max_examples=400, deadline=None)
@given(coupled_matrices())
def test_cut_scan_equals_the_numpy_passes(case):
    t, cutoff = case
    cuts = linalg._cut_passes(t, cutoff)
    assert linalg._scan_cuts(t.tolist(), cutoff) == cuts
    assert linalg._cuts(t, cutoff) == cuts


@pytest.mark.parametrize("d", [linalg._SCAN_BELOW - 1, linalg._SCAN_BELOW])
def test_cuts_on_both_sides_of_the_scan_threshold(d):
    t = np.zeros((d, d))
    t[0, d - 1] = np.nan  # one coupling across every boundary
    t[1, 2] = 1.0
    with mock.patch.object(linalg, "_scan_cuts", wraps=linalg._scan_cuts) as scan:
        assert linalg._cuts(t, 1e-12) == []
        assert linalg._cuts(np.zeros((d, d)), 1e-12) == list(range(1, d))
    assert scan.called == (d < linalg._SCAN_BELOW)


@st.composite
def near_skew_qubits(draw):
    x = draw(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-154, 5e-13, 1e-12, 2e-12, 1e-10, 0.25, 0.5])
        | st.floats(-1.5, 1.5)
    )
    x = x * draw(st.sampled_from([1.0, -1.0]))
    noise = [draw(st.sampled_from([0.0, -0.0, 0.5 * TOL, -TOL, 2 * TOL, 1e-3])) for _ in range(3)]
    return np.array([[noise[0], -x + noise[1]], [x, noise[2]]])


@seed(22)
@settings(max_examples=300, deadline=None)
@given(near_skew_qubits())
@example(np.array([[0.0, -0.5], [0.5, 0.0]]))
@example(np.array([[0.0, 0.5], [-0.5, 0.0]]))
@example(np.array([[np.nan, 0.0], [0.0, 0.0]]))
def test_qubit_canonical_form_is_the_eigh_path_bit_for_bit(a):
    try:
        general = linalg.skew_canonical(a.astype(complex))
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc).split(" (")[0]):
            linalg.skew_canonical(a)
        assert linalg._qubit_canonical(a.tolist()) is None
        return
    form = linalg.skew_canonical(a)
    assert form.block_values.tobytes() == general.block_values.tobytes()
    assert form.orthogonal.tobytes() == general.orthogonal.tobytes()
    assert form.orthogonal.flags.c_contiguous and form.residual_dim == general.residual_dim == 0


def test_qubit_states_use_the_closed_form():
    rho = DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh ran")):
        form = rho.imag_canonical
    assert form.block_values.tolist() == [0.5]
    assert not form.block_values.flags.writeable and not form.orthogonal.flags.writeable
