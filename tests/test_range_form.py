"""The range path of a state's canonical form.

From d = linalg._RANGE_FROM on, validation keeps a rank hint, and a state
whose hint is at most d / 4 takes `linalg._range_form`: a sketch of Im(rho),
its QR and the canonical form of the compressed matrix.  Its result must be
orthogonal, reconstruct Im(rho) within its certified bound, give the dense
path's block values within the cutoff and the closed-form fidelity, be the
same bytes on every call and in every process, and fall back to the dense
path, bit for bit, when the sketch misses part of the range.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from imaginarity import linalg, measures, realops, states
from imaginarity.states import DensityMatrix

R = linalg._RANGE_FROM
CUTOFF = linalg.EXACT_TOL


def low_rank(d, rank, seed):
    return states.gen_max_imaginary(d, rank, seed)


def mixed(d, rank, seed):
    """A rank-`rank` state that is not maximally imaginary."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


CASES = [
    (R - 1, 1), (R, 1), (R + 1, 1), (R, 8), (R + 1, 20), (R + 3, 32), (R + 5, 2), (256, 1), (256, 32),
]


@pytest.mark.parametrize("d, rank", CASES)
def test_range_form_is_accurate(d, rank):
    for rho in (low_rank(d, rank, d + rank), mixed(d, rank, d)):
        form = rho.imag_canonical
        a = rho.matrix.imag
        dense = linalg.skew_canonical(a)
        assert form.certificate.path == ("range" if d >= R else "dense")
        assert form.certificate.bound <= CUTOFF
        assert len(form.block_values) == d // 2 and form.residual_dim == d % 2
        assert np.all(np.diff(form.block_values) <= 0)
        o = form.orthogonal
        assert np.abs(o @ o.T - np.eye(d)).max() <= 16 * d * np.finfo(float).eps
        assert np.linalg.norm(form.reconstruct() - a) <= form.certificate.bound + 16 * d * np.finfo(float).eps
        assert np.abs(form.block_values - dense.block_values).max() <= CUTOFF
        # F_I = 1/2 + ||rho - rho*||_1 / 4, reached by the conversion
        exact = 0.5 + linalg.trace_norm(rho.matrix - rho.matrix.conj()) / 4
        assert abs(realops.convert_to_plus_hat(rho).fidelity - exact) <= 1e-12
        assert abs(measures.classify(rho).imag_fidelity - exact) <= 1e-12


def test_below_the_threshold_no_hint_is_computed():
    assert low_rank(R - 1, 1, 0)._rank_hint is None
    assert low_rank(R, 1, 0)._rank_hint == 1
    assert states.gen_random_density(8, 1)._rank_hint is None


@pytest.mark.parametrize("d", [R, R + 1, 256])
def test_full_rank_states_stay_on_the_dense_path_bit_for_bit(d):
    rho = states.gen_random_density(d, d)
    form = rho.imag_canonical
    ref = linalg.skew_canonical(rho.matrix.imag)
    assert form.certificate == linalg.FormCertificate("dense", ref.certificate.bound)
    assert form.orthogonal.tobytes() == ref.orthogonal.tobytes()
    assert form.block_values.tobytes() == ref.block_values.tobytes()


def test_a_hint_too_low_falls_back_to_the_dense_path_bit_for_bit():
    # Rank 2 plus 40 eigenvalues near 1e-9 whose Im parts lie far above the
    # cutoff: their pivots stay below CHECK_TOL ** 0.25, so the hint is 2
    # and the sketch of 12 columns cannot capture the rank-84 Im(rho).
    d = 2 * R
    o, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((d, d)))
    v = (o[:, 0::2] + 1j * o[:, 1::2]) / np.sqrt(2.0)
    weights = np.r_[0.6, 0.4 - 40e-9, np.full(40, 1e-9), np.zeros(d // 2 - 42)]
    rho = DensityMatrix((v * weights) @ v.conj().T)
    assert rho._rank_hint == 2
    form = rho.imag_canonical
    ref = linalg.skew_canonical(rho.matrix.imag)
    assert form.certificate.path == "dense"
    assert form.orthogonal.tobytes() == ref.orthogonal.tobytes()
    assert form.block_values.tobytes() == ref.block_values.tobytes()
    assert np.count_nonzero(form.block_values > CUTOFF) == 42


def test_real_low_rank_state_takes_the_range_path():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((R, 3))
    rho = DensityMatrix(g @ g.T / np.trace(g @ g.T))
    form = rho.imag_canonical
    assert form.certificate.path == "range"
    assert not form.block_values.any()
    assert np.abs(form.orthogonal @ form.orthogonal.T - np.eye(R)).max() <= 1e-13


def test_same_bytes_from_two_calls_and_two_processes():
    forms = [low_rank(R + 3, 5, 11).imag_canonical for _ in range(2)]
    assert forms[0].orthogonal.tobytes() == forms[1].orthogonal.tobytes()
    assert forms[0].block_values.tobytes() == forms[1].block_values.tobytes()
    code = (
        "import hashlib; from imaginarity import states; "
        f"f = states.gen_max_imaginary({R + 3}, 5, 11).imag_canonical; "
        "print(hashlib.sha256(f.orthogonal.tobytes() + f.block_values.tobytes()).hexdigest())"
    )
    src = os.path.dirname(os.path.dirname(states.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        for _ in range(2)
    ]
    here = hashlib.sha256(forms[0].orthogonal.tobytes() + forms[0].block_values.tobytes()).hexdigest()
    assert out[0].strip() == out[1].strip() == here
