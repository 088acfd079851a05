import numpy as np
import pytest

from imaginarity import linalg, measures, states
from imaginarity.measures import UNIVERSAL, ZERO
from imaginarity.states import BlochVector, DensityMatrix


def orthogonal_support_pair(dim, split, seed):
    """Two states whose supports live on disjoint subsets of a random
    orthonormal basis.  Independent of the measures under test."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)

    def mixture(cols):
        w = rng.random(cols.shape[1]) + 0.1
        w /= w.sum()
        return DensityMatrix(sum(wk * np.outer(cols[:, k], cols[:, k].conj()) for k, wk in enumerate(w)))

    return mixture(q[:, :split]), mixture(q[:, split:])


class TestOverlapConj:
    def test_plus_i_is_zero(self):
        assert measures.overlap_conj(states.from_pure(states.plus_i())) <= 1e-15

    def test_maximally_mixed(self):
        assert abs(measures.overlap_conj(DensityMatrix(np.eye(2) / 2)) - 0.5) <= 1e-15

    def test_bloch_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(3)
            v *= rng.random() / np.linalg.norm(v)
            rho = states.state_of(BlochVector(*v))
            expected = (1 + v[0] ** 2 - v[1] ** 2 + v[2] ** 2) / 2
            assert abs(measures.overlap_conj(rho) - expected) <= 1e-13


class TestMeasureTriple:
    def test_real_state(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        assert measures.imaginarity_trace_norm(rho) == 0
        assert measures.imaginarity_fidelity(rho) == 0.5
        assert measures.robustness(rho) == 0

    def test_plus_i(self):
        rho = states.from_pure(states.plus_i())
        assert abs(measures.imaginarity_trace_norm(rho) - 2) <= 1e-12
        assert abs(measures.imaginarity_fidelity(rho) - 1) <= 1e-12
        assert abs(measures.robustness(rho) - 1) <= 1e-12

    def test_pure_xy_plane_state(self):
        rho = states.state_of(BlochVector(0.6, 0.8, 0.0))
        assert abs(measures.imaginarity_trace_norm(rho) - 1.6) <= 1e-12
        assert abs(measures.imaginarity_fidelity(rho) - 0.9) <= 1e-12
        assert abs(measures.robustness(rho) - 0.8) <= 1e-12

    def test_closed_form_consistency(self):
        for seed in range(40):
            dim = 2 + seed % 7
            if seed % 3:
                rho = states.gen_random_density(dim, seed)
            else:
                rho = states.gen_max_imaginary(max(dim, 2), 1 + seed % max(1, dim // 2), seed)
            report = measures.classify(rho)
            assert abs(report.imag_fidelity - 0.5 - report.imag_trace_norm / 4) <= 1e-12
            assert abs(report.robustness - report.imag_trace_norm / 2) <= 1e-12

    def test_trace_norm_matches_nuclear_norm(self):
        # rho - rho* = 2i Im(rho): the trace norm is twice the SVD nuclear norm.
        def near_threshold(dim, seed):
            sigma = states.gen_max_imaginary(dim, 1, seed).matrix
            p = 4.5e-10 * dim  # tr[rho rho*] ~ 2p/dim = 9e-10
            return DensityMatrix((1 - p) * sigma + p * np.eye(dim) / dim)

        for dim in (2, 3, 8, 17, 64, 256):
            for rho in (
                states.gen_random_density(dim, dim),
                states.gen_max_imaginary(max(dim, 2), max(1, dim // 3), dim),
                near_threshold(dim, dim),
            ):
                expected = 2 * np.linalg.norm(rho.matrix.imag, "nuc")
                assert abs(measures.imaginarity_trace_norm(rho) - expected) <= 1e-12


class TestClassify:
    def test_plus_i_universal(self):
        assert measures.classify(states.from_pure(states.plus_i())).verdict == UNIVERSAL

    def test_slightly_mixed_is_zero(self):
        plus_i = states.from_pure(states.plus_i()).matrix
        rho = DensityMatrix(0.999 * plus_i + 0.001 * np.eye(2) / 2)
        assert measures.classify(rho).verdict == ZERO

    def test_constructed_family_universal(self):
        assert measures.classify(states.gen_max_imaginary(6, 3, 12)).verdict == UNIVERSAL

    def test_dichotomy_sweep(self):
        for seed in range(100):
            dim = 2 + seed % 7
            rho = states.gen_random_density(dim, seed)
            assert measures.classify(rho).verdict == ZERO

    def test_report_serialization(self):
        obj = measures.classify(states.from_pure(states.plus_i())).to_json()
        assert obj["verdict"] == UNIVERSAL
        assert set(obj) == {
            "overlap_conj",
            "imag_trace_norm",
            "imag_fidelity",
            "robustness",
            "verdict",
            "tolerance",
        }


class TestClassifyBloch:
    def test_poles_of_y_axis(self):
        assert measures.classify_bloch(BlochVector(0, 1, 0)) == UNIVERSAL
        assert measures.classify_bloch(BlochVector(0, -1, 0)) == UNIVERSAL

    def test_real_pure_state(self):
        assert measures.classify_bloch(BlochVector(1, 0, 0)) == ZERO

    def test_accepts_plain_triple(self):
        assert measures.classify_bloch((0.0, 1.0, 0.0)) == UNIVERSAL

    def test_triple_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="unit ball"):
            measures.classify_bloch((1.0, 1.0, 0.0))
        # Either side of the CHECK_TOL boundary on norm^2 - 1, as BlochVector.
        for factor, accepted in ((0.5, True), (2.0, False)):
            y = np.sqrt(1.0 + factor * linalg.CHECK_TOL)
            if accepted:
                assert measures.classify_bloch((0.0, y, 0.0)) == UNIVERSAL
                continue
            with pytest.raises(ValueError, match="unit ball"):
                measures.classify_bloch((0.0, y, 0.0))

    def test_non_finite_triple_rejected(self):
        for bad in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)):
            with pytest.raises(ValueError, match="unit ball"):
                measures.classify_bloch(bad)

    def test_grid_sweep_matches_full_classifier(self):
        # verdicts from the Bloch shortcut vs the full-matrix classifier
        axis = np.linspace(-1, 1, 21)
        for x in axis:
            for y in axis:
                for z in axis:
                    if x * x + y * y + z * z > 1:
                        continue
                    b = BlochVector(x, y, z)
                    full = measures.classify(states.state_of(b)).verdict
                    assert measures.classify_bloch(b) == full


class TestOrthogonalityOracle:
    def test_orthogonal_projectors(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 1.0]))
        rec = measures.orthogonality_tracedist_oracle(rho, sigma)
        assert rec["overlap"] <= 1e-15
        assert abs(rec["trace_dist"] - 2) <= 1e-12
        assert rec["equivalence_holds"]

    def test_equal_states(self):
        rho = states.gen_random_density(3, 5)
        rec = measures.orthogonality_tracedist_oracle(rho, rho)
        assert rec["overlap"] > 0
        assert rec["trace_dist"] <= 1e-12
        assert rec["equivalence_holds"]

    def test_plus_i_against_conjugate(self):
        rho = states.from_pure(states.plus_i())
        rec = measures.orthogonality_tracedist_oracle(rho, states.conj_state(rho))
        assert rec["overlap"] <= 1e-15
        assert abs(rec["trace_dist"] - 2) <= 1e-12
        assert rec["equivalence_holds"]

    def test_equivalence_sweep(self):
        for seed in range(60):
            dim = 2 + seed % 6
            if seed % 2:
                rho, sigma = orthogonal_support_pair(dim, 1 + seed % (dim - 1), seed)
            else:
                rho = states.gen_random_density(dim, seed)
                sigma = states.gen_random_density(dim, seed + 10_000)
            assert measures.orthogonality_tracedist_oracle(rho, sigma)["equivalence_holds"]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            measures.orthogonality_tracedist_oracle(
                states.gen_random_density(2, 0), states.gen_random_density(3, 0)
            )


class TestDualNormWitness:
    def test_orthogonal_projectors(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.diag([0.0, 1.0]))
        rec = measures.dual_norm_witness(rho, sigma)
        np.testing.assert_allclose(rec["operator"], np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(rec["value"] - 2) <= 1e-12

    def test_equal_states_give_zero(self):
        rho = states.gen_random_density(4, 2)
        assert abs(measures.dual_norm_witness(rho, rho)["value"]) <= 1e-12

    def test_witness_on_orthogonal_supports(self):
        for seed in range(20):
            dim = 3 + seed % 5
            rho, sigma = orthogonal_support_pair(dim, 1 + seed % (dim - 1), seed)
            rec = measures.dual_norm_witness(rho, sigma)
            m = rec["operator"]
            assert abs(np.trace(rho.matrix @ m).real - 1) <= 1e-10
            assert abs(np.trace(sigma.matrix @ m).real) <= 1e-10

    def test_value_matches_trace_norm(self):
        from imaginarity import linalg

        for seed in range(30):
            dim = 2 + seed % 6
            rho = states.gen_random_density(dim, seed)
            sigma = states.gen_random_density(dim, seed + 500)
            rec = measures.dual_norm_witness(rho, sigma)
            tn = linalg.trace_norm(rho.matrix - sigma.matrix)
            assert abs(rec["value"] - tn) <= 1e-10
            # 0 <= M <= I
            w = np.linalg.eigvalsh(rec["operator"])
            assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12
