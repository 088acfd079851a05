"""Property tests across dimensions 1 to 48.

A real orthogonal change of basis O leaves the imaginarity of a state
unchanged: it commutes with complex conjugation, so rho - rho* rotates
into O (rho - rho*) O^T.  The skew canonical form must therefore return
the same block values for O A O^T as for A, and `classify` must return
the same verdict, trace norm and fidelity for O rho O^T as for rho.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imaginarity import linalg, measures, states
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
