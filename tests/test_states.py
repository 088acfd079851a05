import warnings

import numpy as np
import pytest

from imaginarity import linalg, measures, states
from imaginarity.states import (
    BlochVector,
    DensityMatrix,
    PureState,
    StateFormatError,
    StateValidationError,
)


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        # Either side of the CHECK_TOL boundary on max |m - m^dag|.
        for factor, accepted in ((0.5, True), (2.0, False)):
            m = np.array([[0.5, factor * linalg.CHECK_TOL], [0.0, 0.5]])
            if accepted:
                DensityMatrix(m)
                continue
            with pytest.raises(StateValidationError, match="Hermitian"):
                DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.eye(2))
        # Either side of the CHECK_TOL boundary on |tr m - 1|.
        for factor, accepted in ((0.5, True), (-0.5, True), (2.0, False), (-2.0, False)):
            m = np.diag([0.5 + factor * linalg.CHECK_TOL, 0.5])
            if accepted:
                DensityMatrix(m)
                continue
            with pytest.raises(StateValidationError, match="trace"):
                DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))
        # Either side of the -CHECK_TOL boundary, in a random complex basis.
        rng = np.random.default_rng(3)
        for d in (2, 16, 256):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(g)
            for factor, accepted in ((-0.5, True), (-2.0, False)):
                low = factor * linalg.CHECK_TOL
                eigs = np.concatenate([[low], np.full(d - 1, (1.0 - low) / (d - 1))])
                m = (q * eigs) @ q.conj().T
                if accepted:
                    DensityMatrix(m)
                    continue
                with pytest.raises(StateValidationError, match="positive semidefinite") as err:
                    DensityMatrix(m)
                assert f"min eigenvalue {low:.3e}" in str(err.value)

    def test_rejects_unnormalized_pure(self):
        with pytest.raises(StateValidationError, match="norm"):
            PureState(np.array([1.0, 1.0]))
        # Either side of the EXACT_TOL boundary on |norm^2 - 1|.
        unit = np.array([0.6, 0.8j])
        for factor, accepted in ((0.5, True), (-0.5, True), (2.0, False), (-2.0, False)):
            amps = unit * np.sqrt(1.0 + factor * linalg.EXACT_TOL)
            if accepted:
                PureState(amps)
                continue
            with pytest.raises(StateValidationError, match="norm"):
                PureState(amps)

    def test_rejects_long_bloch_vector(self):
        with pytest.raises(StateValidationError, match="norm"):
            BlochVector(1.0, 0.2, 0.0)
        # Either side of the CHECK_TOL boundary on norm^2 - 1.
        for factor, accepted in ((0.5, True), (2.0, False)):
            y = np.sqrt(1.0 + factor * linalg.CHECK_TOL)
            if accepted:
                BlochVector(0.0, y, 0.0)
                continue
            with pytest.raises(StateValidationError, match="norm"):
                BlochVector(0.0, y, 0.0)

    def test_rejects_non_finite_bloch_vector(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(StateValidationError, match="norm"):
                BlochVector(bad, 0.0, 0.0)

    def test_rejects_bloch_coordinates_whose_squares_overflow(self):
        # `imaginarity gen bloch 1e200 0 0` left an OverflowError traceback.
        for bad in (1e200, -1e308):
            with pytest.raises(StateValidationError, match=r"norm\^2 = inf"):
                BlochVector(0.0, bad, 0.0)

    def test_matrix_is_immutable(self):
        rho = states.from_pure(states.plus_i())
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0


#: Hermitian, unit-trace matrices whose entries near the float range once
#: overflowed the Cholesky factor into inf and NaN without a LinAlgError:
#: the 2x2 case, a 5x5 variant with the pair spread to rows 0 and 4, and
#: entries at 1.7e308, where m + m^dag itself overflows.
def spread_pair(d):
    m = np.diag([5e-324] + [0.0] * (d - 2) + [1.0]).astype(complex)
    m[0, -1], m[-1, 0] = 5e307 + 5e-10j, 5e307 - 5e-10j
    return m


OVERFLOWING = {
    "2x2": spread_pair(2),
    "5x5": spread_pair(5),
    "float range": np.array([[0.5, 1.7e308], [1.7e308, 0.5]], dtype=complex),
}


class TestEntryBound:
    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    def test_overflowing_states_are_rejected_without_warnings(self, name):
        m = OVERFLOWING[name]
        assert np.array_equal(m, m.conj().T) and m.trace() == 1.0
        if m.shape == (2, 2):
            assert not states._scalar_accepts(m.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateValidationError, match="positive semidefinite: min eigenvalue -"):
                DensityMatrix(m)

    def test_the_bound_keeps_every_check_and_its_message(self):
        # Past the bound the checks still run in order: a non-Hermitian
        # matrix, a wrong trace and NaN keep their own messages.
        cases = {
            "not Hermitian: max |m - m^dag| = inf": [[0.5, 1e308], [-1e308, 0.5]],
            "trace is (2+0j), expected 1": [[1.5, 0.0], [0.0, 0.5]],
            "non-finite": [[np.nan, 1e308], [1e308, 0.5]],
            "positive semidefinite: min eigenvalue -5.000e-01": [[1.5, 0.0], [0.0, -0.5]],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for message, m in cases.items():
                with pytest.raises(StateValidationError) as err:
                    DensityMatrix(np.array(m, dtype=complex))
                assert message in str(err.value)

    @pytest.mark.parametrize("d", [2, 3, 16, 65])
    def test_states_reach_the_bound_and_no_state_passes_it(self, d):
        # A PSD, unit-trace matrix has |rho_ij| <= 1, and a basis state
        # reaches it.
        DensityMatrix(np.diag(np.eye(d)[0]))
        bound = states._entry_bound(d)
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = bound
        m[1, 1] = 1.0 - bound
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(m)  # within the bound, caught by the factorization
        m[0, 0], m[1, 1] = np.nextafter(bound, 2.0), 1.0 - np.nextafter(bound, 2.0)
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(m)  # past it, never factored

    def test_a_non_finite_factor_is_a_failed_factorization(self, monkeypatch):
        # LAPACK may return a factor holding NaN instead of failing; its
        # diagonal is read, and the matrix is reported as not PSD.  d = 5
        # is past the scalar accept, so the general check runs.
        cholesky = np.linalg.cholesky

        def nan_factor(a):
            out = cholesky(a)
            out[-1, -1] = np.nan
            return out

        monkeypatch.setattr(np.linalg, "cholesky", nan_factor)
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(np.eye(5) / 5)


class TestFromPure:
    def test_basis_state(self):
        rho = states.from_pure(PureState(np.eye(2)[0]))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_plus_i(self):
        rho = states.from_pure(states.plus_i())
        np.testing.assert_allclose(rho.matrix, np.array([[1, -1j], [1j, 1]]) / 2, atol=1e-15)

    def test_entangled_imaginary_pair(self):
        psi = PureState(np.array([1, 0, 0, 1j]) / np.sqrt(2))
        rho = states.from_pure(psi)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3] = -0.5j
        expected[3, 0] = 0.5j
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)


class TestConjugation:
    def test_real_state_fixed(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        np.testing.assert_array_equal(states.conj_state(rho).matrix, rho.matrix)

    def test_plus_i_maps_to_minus_i(self):
        rho = states.conj_state(states.from_pure(states.plus_i()))
        np.testing.assert_allclose(rho.matrix, states.from_pure(states.minus_i()).matrix)

    def test_bloch_y_flip_and_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.standard_normal(3)
            v *= rng.random() / np.linalg.norm(v)
            rho = states.state_of(BlochVector(*v))
            b = states.bloch_of(states.conj_state(rho))
            np.testing.assert_allclose([b.x, b.y, b.z], [v[0], -v[1], v[2]], atol=1e-13)
            back = states.conj_state(states.conj_state(rho))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


class TestBloch:
    def test_maximally_mixed(self):
        b = states.bloch_of(DensityMatrix(np.eye(2) / 2))
        assert (b.x, b.y, b.z) == (0.0, 0.0, 0.0)

    def test_plus_i_on_y_axis(self):
        b = states.bloch_of(states.from_pure(states.plus_i()))
        np.testing.assert_allclose([b.x, b.y, b.z], [0, 1, 0], atol=1e-15)

    def test_eighth_phase_superposition(self):
        psi = PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
        b = states.bloch_of(states.from_pure(psi))
        np.testing.assert_allclose([b.x, b.y, b.z], [np.sqrt(2) / 2, np.sqrt(2) / 2, 0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rho = states.gen_random_density(2, int(rng.integers(1 << 30)))
            back = states.state_of(states.bloch_of(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="qubit"):
            states.bloch_of(states.gen_random_density(3, 0))


class TestGenerators:
    def test_dim_one_is_scalar_one(self):
        rho = states.gen_random_density(1, 5)
        np.testing.assert_allclose(rho.matrix, [[1.0]])

    def test_random_density_deterministic(self):
        a = states.gen_random_density(4, 9)
        b = states.gen_random_density(4, 9)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_random_density_valid(self):
        for seed in range(5):
            states.gen_random_density(4, seed)  # constructor validates

    def test_random_density_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            states.gen_random_density(0, 1)

    def test_max_imaginary_qubit(self):
        rho = states.gen_max_imaginary(2, 1, 3)
        b = states.bloch_of(rho)
        assert abs(abs(b.y) - 1.0) <= 1e-12

    def test_max_imaginary_zero_overlap(self):
        for seed in range(10):
            dim = 2 + 2 * (seed % 4)
            rank = 1 + seed % (dim // 2)
            rho = states.gen_max_imaginary(dim, rank, seed)
            assert measures.overlap_conj(rho) <= 1e-12
            assert abs(measures.imaginarity_trace_norm(rho) - 2.0) <= 1e-10
            assert measures.classify(rho).verdict == measures.UNIVERSAL

    def test_max_imaginary_deterministic(self):
        a = states.gen_max_imaginary(6, 2, 3)
        b = states.gen_max_imaginary(6, 2, 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_max_imaginary_rank_guard(self):
        with pytest.raises(ValueError, match="rank"):
            states.gen_max_imaginary(4, 3, 0)


class TestPureOverlapIdentity:
    def test_rank_one_identity(self):
        # tr[rho rho*] = |sum_j psi_j^2|^2 for pure states
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            amps /= np.linalg.norm(amps)
            rho = states.from_pure(PureState(amps))
            expected = abs(np.sum(amps**2)) ** 2
            assert abs(measures.overlap_conj(rho) - expected) <= 1e-12


class TestJson:
    def test_density_round_trip(self):
        rho = states.gen_random_density(3, 7)
        back = states.density_from_json(states.density_to_json(rho))
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_missing_field_is_format_error(self):
        with pytest.raises(StateFormatError):
            states.density_from_json({"dim": 2, "re": [[1, 0], [0, 0]]})

    def test_shape_mismatch_is_format_error(self):
        with pytest.raises(StateFormatError):
            states.density_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize("dim", [2.7, True, "2", None, 0])
    def test_dim_must_be_a_positive_json_integer(self, dim):
        # 2.7 was read as 2, true as 1 and "2" as 2: dim is never coerced.
        obj = {"dim": dim, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(StateFormatError, match="dim"):
            states.density_from_json(obj)

    def test_matrix_grammar_checks_the_format_only(self):
        # A unitary is no state; the grammar reads it all the same.
        s_gate = {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 1.0]]}
        np.testing.assert_array_equal(states.matrix_from_json(s_gate), np.diag([1.0, 1.0j]))
        with pytest.raises(StateFormatError):
            states.matrix_from_json([s_gate])

    def test_invalid_state_is_validation_error(self):
        obj = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(StateValidationError):
            states.density_from_json(obj)
