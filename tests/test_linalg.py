import itertools

import numpy as np
import pytest

from imaginarity import linalg

Z = np.diag([1, -1]).astype(complex)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def skew_from_blocks(values, dim, rng):
    """Q^T (direct sum of a_m [[0, -1], [1, 0]]) Q for a random orthogonal Q."""
    canon = np.zeros((dim, dim))
    idx = 2 * np.arange(len(values))
    canon[idx, idx + 1] = -np.asarray(values)
    canon[idx + 1, idx] = values
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q.T @ canon @ q


def skew_sweep_inputs():
    """Random skew matrices, then block spectra near the eigenvalue cutoff
    (1e-12 of the largest) and with repeated block values."""
    rng = np.random.default_rng(8)
    for count in range(200):
        d = 2 + count % 8
        g = rng.standard_normal((d, d))
        yield g - g.T
    for d in (16, 64):
        g = rng.standard_normal((d, d))
        yield g - g.T
    near_cutoff = [1.0, 0.5, 1e-9, 1e-10, 1e-11, 2e-12]
    for d in (12, 13, 16, 64):
        for scale in (1.0, 3.0):
            yield skew_from_blocks(scale * np.array(near_cutoff), d, rng)
    for d, values in [(5, [0.4, 0.4]), (9, [0.3, 0.3, 0.3, 0.1]), (16, [0.25] * 3 + [0.1] * 2),
                      (64, [0.2] * 10 + [0.05] * 10 + [1e-10] * 4)]:
        yield skew_from_blocks(values, d, rng)


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(3)
        rho = random_hermitian(3, rng)
        sigma = random_hermitian(4, rng)
        out = linalg.partial_trace(np.kron(rho, sigma), [3, 4], {0})
        np.testing.assert_allclose(out, rho * np.trace(sigma), atol=1e-13)

    def test_identity(self):
        np.testing.assert_allclose(linalg.partial_trace(np.eye(4), [2, 2], {1}), 2 * np.eye(2))

    def test_trace_preserving(self):
        rng = np.random.default_rng(4)
        for dims, keep in [([2, 3], {0}), ([2, 2, 2], {1}), ([3, 2, 2], {0, 2})]:
            m = random_hermitian(int(np.prod(dims)), rng)
            out = linalg.partial_trace(m, dims, keep)
            assert abs(np.trace(out) - np.trace(m)) <= 1e-12

    def test_inconsistent_dims(self):
        with pytest.raises(ValueError, match="inconsistent"):
            linalg.partial_trace(np.eye(4), [2, 3], {0})


class TestHermitianEig:
    def test_pauli_z(self):
        w, _ = linalg.hermitian_eig(Z)
        np.testing.assert_allclose(w, [1, -1])

    def test_rank_one_projector(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        w, _ = linalg.hermitian_eig(np.outer(v, v.conj()))
        np.testing.assert_allclose(w, [1, 0], atol=1e-15)

    def test_pure_imaginary_bloch_difference(self):
        # rho - rho* for Bloch (0, y, 0) is y * Y with eigenvalues +/- y
        y = 0.73
        yy = np.array([[0, -1j], [1j, 0]])
        w, _ = linalg.hermitian_eig(y * yy)
        np.testing.assert_allclose(w, [y, -y], atol=1e-14)

    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(5)
        for dim in range(2, 7):
            m = random_hermitian(dim, rng)
            w, v = linalg.hermitian_eig(m)
            assert np.all(np.diff(w) <= 1e-14)
            np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.hermitian_eig(np.array([[np.nan, 0], [0, 1]]))


class TestTraceNorm:
    def test_maximally_imaginary_difference(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        assert abs(linalg.trace_norm(rho - rho.conj()) - 2) <= 1e-14

    def test_real_state_difference_vanishes(self):
        rho = np.diag([0.25, 0.75])
        assert linalg.trace_norm(rho - rho.conj()) == 0

    def test_bloch_difference(self):
        x, y, z = 0.3, -0.6, 0.2
        paulis = (
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        )
        rho = (np.eye(2) + x * paulis[0] + y * paulis[1] + z * paulis[2]) / 2
        assert abs(linalg.trace_norm(rho - rho.conj()) - 2 * abs(y)) <= 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.trace_norm(np.array([[0, 1], [0, 0]]))

    def test_duality_oracle(self):
        # ||m||_1 equals the maximum of |tr[m (2P - I)]| over projectors P
        # onto eigenvector subsets, computed by brute-force enumeration.
        rng = np.random.default_rng(6)
        for dim in range(2, 6):
            m = random_hermitian(dim, rng)
            w, v = linalg.hermitian_eig(m)
            best = 0.0
            for bits in itertools.product([0, 1], repeat=dim):
                cols = v[:, np.array(bits, dtype=bool)]
                p = cols @ cols.conj().T
                best = max(best, abs(np.trace(m @ (2 * p - np.eye(dim))).real))
            assert abs(linalg.trace_norm(m) - best) <= 1e-10


class TestOrthonormalComplete:
    def test_single_basis_column(self):
        out = linalg.orthonormal_complete(np.array([[1.0], [0.0]]))
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(out.T @ out, np.eye(2), atol=1e-12)

    def test_square_input_passthrough(self):
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(linalg.orthonormal_complete(q), q)

    def test_contract_on_random_isometries(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for k in range(1, n + 1):
                q, _ = np.linalg.qr(rng.standard_normal((n, k)))
                out = linalg.orthonormal_complete(q)
                assert out.shape == (n, n)
                np.testing.assert_array_equal(out[:, :k], q)  # bitwise copy
                assert np.max(np.abs(out.T @ out - np.eye(n))) <= 1e-12

    def test_rejects_complex_columns(self):
        with pytest.raises(ValueError, match="real"):
            linalg.orthonormal_complete(np.array([[1j], [0]]))

    def test_rejects_non_orthonormal(self):
        # a square input is returned without a factorization, but still checked
        for bad in (np.array([[1.0], [1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])):
            with pytest.raises(ValueError, match="orthonormal"):
                linalg.orthonormal_complete(bad)


def cluster_inputs():
    """Spectra that the real eigensolve of A^T A cannot split on its own."""
    rng = np.random.default_rng(9)
    yield pytest.param(skew_from_blocks([0.25] * 128, 256, rng), id="equal values")
    for spacing in (1e-6, 1e-9):
        values = np.concatenate(
            [0.3 * (1 + spacing * np.arange(12)), [0.2, 0.1], 0.05 * (1 + spacing * np.arange(4))]
        )
        yield pytest.param(skew_from_blocks(values, 64, rng), id=f"relative spacing {spacing}")
    yield pytest.param(skew_from_blocks([0.4, 1e-7, 1e-9, 3e-12], 33, rng), id="small values")
    yield pytest.param(skew_from_blocks([0.3, 0.3, 0.1, 0.1], 11, rng), id="repeated pairs")
    yield pytest.param(np.zeros((6, 6)), id="zero matrix")
    yield pytest.param(np.zeros((7, 7)), id="zero matrix, odd size")
    yield pytest.param(np.zeros((1, 1)), id="d = 1")


class TestSkewCanonical:
    @pytest.mark.parametrize("a", cluster_inputs())
    def test_cluster_inputs(self, a):
        d = a.shape[0]
        form = linalg.skew_canonical(a)
        # block values against the positive half of an independent spectrum
        expected = np.sort(np.linalg.eigvalsh(1j * a))[::-1][: d // 2]
        assert np.max(np.abs(form.block_values - expected), initial=0.0) <= 1e-12
        assert np.max(np.abs(form.reconstruct() - a)) <= 1e-12
        o = form.orthogonal
        assert np.max(np.abs(o @ o.T - np.eye(d))) <= 1e-12
        canon = o @ a @ o.T
        for m, value in enumerate(form.block_values):
            assert abs(canon[2 * m + 1, 2 * m] - value) <= 1e-12  # +a_m below the diagonal
        assert form.residual_dim == d % 2

    def test_already_canonical(self):
        t = 0.4
        a = np.array([[0.0, -t], [t, 0.0]])
        form = linalg.skew_canonical(a)
        np.testing.assert_allclose(form.block_values, [t])
        np.testing.assert_allclose(form.reconstruct(), a, atol=1e-14)
        canon = form.orthogonal @ a @ form.orthogonal.T
        assert canon[0, 1] < 0  # orientation: -a_m in the upper right

    def test_flipped_orientation(self):
        t = 0.4
        a = np.array([[0.0, t], [-t, 0.0]])
        form = linalg.skew_canonical(a)
        np.testing.assert_allclose(form.block_values, [t])
        canon = form.orthogonal @ a @ form.orthogonal.T
        assert abs(canon[0, 1] + t) <= 1e-12

    def test_degenerate_two_blocks(self):
        # Im rho for the equal mixture of (e0 + i e1)/sqrt(2) and
        # (e2 + i e3)/sqrt(2): two blocks of value 1/4 each.
        e = np.eye(4)
        va = (e[:, 0] + 1j * e[:, 1]) / np.sqrt(2)
        vb = (e[:, 2] + 1j * e[:, 3]) / np.sqrt(2)
        rho = (np.outer(va, va.conj()) + np.outer(vb, vb.conj())) / 2
        form = linalg.skew_canonical(rho.imag)
        np.testing.assert_allclose(form.block_values, [0.25, 0.25], atol=1e-12)
        assert form.residual_dim == 0
        np.testing.assert_allclose(form.reconstruct(), rho.imag, atol=1e-12)

    def test_random_reconstruction_sweep(self):
        for a in skew_sweep_inputs():
            d = a.shape[0]
            form = linalg.skew_canonical(a)
            assert np.max(np.abs(form.reconstruct() - a)) <= 1e-10
            o = form.orthogonal
            assert np.max(np.abs(o.T @ o - np.eye(d))) <= 1e-12
            assert np.all(np.diff(form.block_values) <= 1e-14)
            assert abs(2 * np.sum(form.block_values) - linalg.trace_norm(1j * a)) <= 1e-10
            assert form.residual_dim == d % 2

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            linalg.skew_canonical(np.eye(2))
