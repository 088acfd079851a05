import itertools
import json

import numpy as np
import pytest

from imaginarity import cli, linalg
from imaginarity.states import DensityMatrix, StateValidationError

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


# ---------------------------------------------------------------------------
# the tiled symmetric-part pass and the cut rule, against the whole-matrix
# formulas they replace

TILE_DIMS = (1, 2, 3, 63, 64, 65, 127, 128, 129, 257)


def whole_hermitian_part(m):
    """max |m - m^dag| and (m + m^dag) / 2 by whole-matrix transposes."""
    adj = m.conj().T
    return np.max(np.abs(m - adj), initial=0.0), (m + adj) / 2


def whole_skew_part(a):
    """max |a + a^T| and (a - a^T) / 2 by whole-matrix transposes."""
    return np.max(np.abs(a + a.T), initial=0.0), (a - a.T) / 2


def near_hermitian(d, rng):
    """Hermitian up to 1e-12, with exact and signed zeros among its entries.

    Its real rows make zero pairs of the imaginary part, where mirroring a
    finished tile instead of computing its partner would flip zero signs.
    """
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g + g.conj().T + 1e-12 * rng.standard_normal((d, d))
    m.imag[: d // 3] = 0.0
    m.imag[:, : d // 3] = 0.0
    m.real[d // 2] = -0.0
    m.imag[-1, :: 2] = -0.0
    return m


def assert_bitwise(got, expected):
    dev, part = got
    assert dev == expected[0]
    assert part.dtype == expected[1].dtype and part.shape == expected[1].shape
    assert part.tobytes() == expected[1].tobytes()  # tells -0.0 from +0.0


class TestSymmetricPart:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_hermitian_part_is_bitwise_the_whole_matrix_formula(self, d):
        m = near_hermitian(d, np.random.default_rng(d))
        assert_bitwise(linalg._symmetric_part(m), whole_hermitian_part(m))
        if d > 1:  # and an exactly Hermitian input, of deviation zero
            m = (m + m.conj().T) / 2
            assert_bitwise(linalg._symmetric_part(m), whole_hermitian_part(m))
            assert linalg._hermitian_part(m).tobytes() == whole_hermitian_part(m)[1].tobytes()

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_skew_part_is_bitwise_the_whole_matrix_formula(self, d):
        m = near_hermitian(d, np.random.default_rng(100 + d))
        strided = m.imag  # a view with twice the element stride, as DensityMatrix passes it
        for a in (strided, np.ascontiguousarray(strided), -strided.T):
            assert_bitwise(linalg._symmetric_part(a, skew=True), whole_skew_part(a))

    @pytest.mark.parametrize(
        "big, small",
        [((3, 190), (70, 75)), ((190, 3), (70, 75)), ((140, 130), (190, 3))],
        ids=["upper tile", "lower tile", "diagonal tile"],
    )
    def test_largest_deviation_planted_in_one_tile(self, big, small):
        # a smaller deviation elsewhere, so the pass must compare tiles
        d = 200
        m = np.eye(d, dtype=complex) / d
        m[small] += 4e-4
        m[big] += 1e-3j
        dev = whole_hermitian_part(m)[0]
        assert linalg._symmetric_part(m)[0] == dev == 1e-3
        with pytest.raises(StateValidationError) as exc:
            DensityMatrix(m)
        assert str(exc.value) == f"not Hermitian: max |m - m^dag| = {dev:.3e}"
        with pytest.raises(ValueError) as exc:
            linalg.hermitian_eig(m)
        assert str(exc.value) == f"matrix is not Hermitian (max deviation {dev:.3e})"

        a = np.zeros((d, d))
        a[small] = 4e-4
        a[big] = 1e-3
        dev = whole_skew_part(a)[0]
        assert linalg._symmetric_part(a, skew=True)[0] == dev == 1e-3
        with pytest.raises(ValueError) as exc:
            linalg.skew_canonical(a)
        assert str(exc.value) == f"matrix is not skew-symmetric (max deviation {dev:.3e})"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(5, 150), (150, 5)], ids=["upper tile", "lower tile"])
    def test_non_finite_entry_in_an_off_diagonal_tile(self, capsys, tmp_path, bad, where):
        d = 160
        m = np.eye(d, dtype=complex) / d
        m[where] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityMatrix(m)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.hermitian_eig(m)
        with pytest.raises(ValueError, match="non-finite"):
            linalg.skew_canonical(m.real)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": d, "re": m.real.tolist(), "im": m.imag.tolist()}))
        assert cli.main(["classify", str(path)]) == cli.EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


def accumulate_cuts(t, cutoff):
    """The 2-D maximum.accumulate rule `_cuts` replaces, as an oracle."""
    d = t.shape[0]
    tail = np.maximum.accumulate(np.abs(t)[:, ::-1], axis=1)[:, ::-1]
    coupling = np.diagonal(np.maximum.accumulate(tail, axis=0), offset=1)
    return (np.flatnonzero(d * coupling <= cutoff) + 1).tolist()


def rotated(a):
    """T = Q^T A Q and the cutoff, formed as skew_canonical forms them."""
    a = (a - a.T) / 2
    g, q = np.linalg.eigh(a.T @ a)
    q = q[:, ::-1]
    return q.T @ a @ q, linalg.EXACT_TOL * max(1.0, float(np.sqrt(max(g[-1], 0.0))))


def block_spectrum(values, d):
    t = np.zeros((d, d))
    idx = 2 * np.arange(len(values))
    t[idx, idx + 1] = -np.asarray(values)
    t[idx + 1, idx] = values
    return t


class TestCuts:
    def test_matches_the_accumulate_rule_on_the_sweep(self):
        cut = kept = 0
        for a in skew_sweep_inputs():
            t, cutoff = rotated(a)
            cuts = accumulate_cuts(t, cutoff)
            assert linalg._cuts(t, cutoff) == cuts
            cut, kept = cut + len(cuts), kept + len(t) - 1 - len(cuts)
        assert cut > 400 and kept > 400  # both outcomes are exercised

    @pytest.mark.parametrize("d", [2, 3, 11, 64, 129])
    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["below", "above"])
    def test_one_planted_coupling_across_a_boundary(self, d, factor):
        values = [0.5, 0.3, 0.3, 1e-3, 2e-12][: d // 2]
        t = block_spectrum(values, d)
        cutoff = linalg.EXACT_TOL * 0.5
        free = accumulate_cuts(t, cutoff)
        # every block its own cluster, every zero row past them too
        assert free == [b for b in range(1, d) if b % 2 == 0 or b > 2 * len(values)]
        for b in free:
            for i, k in ((b - 1, b), (0, d - 1), (b - 2, b + 1)):
                if not (0 <= i < b <= k < d):
                    continue
                planted = t.copy()
                planted[i, k] = factor * cutoff / d
                planted[k, i] = -planted[i, k]
                cuts = linalg._cuts(planted, cutoff)
                assert cuts == accumulate_cuts(planted, cutoff)
                crossed = [c for c in range(1, d) if i < c <= k]
                if factor > 1:  # coupled: no cut between i and k survives
                    assert not set(cuts) & set(crossed)
                else:
                    assert cuts == free

    def test_nan_counts_as_coupled_as_before(self):
        t = block_spectrum([0.5, 0.25, 0.1], 7)
        t[1, 4] = np.nan
        assert linalg._cuts(t, 1e-12) == accumulate_cuts(t, 1e-12) == [6]

    @pytest.mark.parametrize("d", [0, 1])
    def test_no_boundary_below_two(self, d):
        assert linalg._cuts(np.zeros((d, d)), 1e-12) == []
