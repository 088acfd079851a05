import json

import numpy as np
import pytest
from test_properties import random_orthogonal

from imaginarity import linalg, measures, realops, states
from imaginarity.states import DensityMatrix


def plus_hat_projector():
    return states.from_pure(states.plus_i()).matrix


class TestBuildKraus:
    def test_qubit_family_is_bit_flip(self):
        k = realops.build_kraus(2)
        assert len(k.operators) == 1
        np.testing.assert_array_equal(k.operators[0], [[0.0, 1.0], [1.0, 0.0]])

    def test_odd_dimension_remainder(self):
        k = realops.build_kraus(3)
        assert len(k.operators) == 2
        np.testing.assert_array_equal(k.operators[0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(k.operators[1], [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])

    def test_completeness_exact(self):
        for d in range(2, 10):
            k = realops.build_kraus(d)
            comp = sum(op.T @ op for op in k.operators)
            np.testing.assert_array_equal(comp, np.eye(d))

    def test_operators_match_loop_reference(self):
        for d in [*range(2, 10), 257, 512]:
            reference = []
            for m in range(d // 2):
                k = np.zeros((2, d))
                k[1, 2 * m] = 1.0
                k[0, 2 * m + 1] = 1.0
                reference.append(k)
            if d % 2:
                k = np.zeros((2, d))
                k[0, d - 1] = 1.0
                reference.append(k)
            ops = realops.build_kraus(d).operators
            assert ops.dtype == np.float64 and ops.shape == ((d + 1) // 2, 2, d)
            assert np.array_equal(ops, np.array(reference))

    def test_operators_are_one_read_only_array(self):
        given = np.eye(2)[None].copy()
        ops = realops.RealKrausSet(in_dim=2, out_dim=2, operators=given).operators
        assert isinstance(ops, np.ndarray) and not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 0.0
        assert given.flags.writeable  # the caller's array is copied, not frozen
        assert not realops.build_kraus(5).operators.flags.writeable

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            realops.build_kraus(1)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="trace preserving"):
            realops.RealKrausSet(in_dim=2, out_dim=2, operators=(np.eye(2) * 0.5,))
        # Either side of the EXACT_TOL boundary on max |sum K^T K - I|.
        for factor, accepted in ((0.5, True), (-0.5, True), (2.0, False), (-2.0, False)):
            ops = (np.eye(2) * np.sqrt(1.0 + factor * linalg.EXACT_TOL),)
            if accepted:
                realops.RealKrausSet(in_dim=2, out_dim=2, operators=ops)
                continue
            with pytest.raises(ValueError, match="trace preserving"):
                realops.RealKrausSet(in_dim=2, out_dim=2, operators=ops)

    def test_imaginary_parts_rejected(self):
        # The realness rule of linalg: |Im| above EXACT_TOL is an error, as
        # an array and as nested lists; below it the real part is kept.
        ops = np.eye(2, dtype=complex)[None].copy()
        ops[0, 0, 1] = 1e-3j
        for given in (ops, ops.tolist()):
            with pytest.raises(ValueError, match="real"):
                realops.RealKrausSet(in_dim=2, out_dim=2, operators=given)
        ops[0, 0, 1] = 0.5j * linalg.EXACT_TOL
        kraus = realops.RealKrausSet(in_dim=2, out_dim=2, operators=ops)
        assert kraus.operators.dtype == np.float64
        np.testing.assert_array_equal(kraus.operators[0], np.eye(2))

    def test_non_finite_operator_rejected(self):
        ops = realops.build_kraus(4).operators.copy()
        ops[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            realops.RealKrausSet(in_dim=4, out_dim=2, operators=ops)


class TestAlignment:
    def test_plus_i_reaches_fidelity_one(self):
        rho = states.from_pure(states.plus_i())
        result = realops.convert_to_plus_hat(rho)
        assert abs(result.fidelity - 1.0) <= 1e-12
        np.testing.assert_allclose(result.output.matrix, plus_hat_projector(), atol=1e-12)

    def test_real_state_stuck_at_half(self):
        rho = DensityMatrix(np.diag([0.25, 0.35, 0.4]))
        assert abs(realops.convert_to_plus_hat(rho).fidelity - 0.5) <= 1e-12

    def test_max_imaginary_inputs_reach_one(self):
        for seed in range(8):
            rho = states.gen_max_imaginary(6, 2, seed)
            result = realops.convert_to_plus_hat(rho)
            assert abs(result.fidelity - 1.0) <= 1e-10
            np.testing.assert_allclose(result.output.matrix, plus_hat_projector(), atol=1e-10)

    def test_matches_per_block_swap(self):
        # Reference: the canonical form's rows with rows 2m and 2m + 1
        # swapped, one block at a time.
        for rho in (
            states.gen_random_density(8, 1),
            states.gen_random_density(9, 2),
            states.gen_max_imaginary(16, 3, 3),
            DensityMatrix(np.diag([0.25, 0.35, 0.4])),
            states.gen_random_density(256, 4),
        ):
            form = rho.imag_canonical
            want = form.orthogonal.copy()
            for m in range(len(form.block_values)):
                want[[2 * m, 2 * m + 1]] = want[[2 * m + 1, 2 * m]]
            np.testing.assert_array_equal(realops.align_for_state(rho), want)

    def test_alignment_is_orthogonal(self):
        for seed in range(8):
            rho = states.gen_random_density(5, seed)
            o = realops.align_for_state(rho)
            assert not np.iscomplexobj(o)
            assert np.max(np.abs(o.T @ o - np.eye(5))) <= 1e-12


class TestApplyKraus:
    def test_bit_flip_on_ground_state(self):
        k = realops.build_kraus(2)
        out = realops.apply_kraus(k, None, DensityMatrix(np.diag([1.0, 0.0])))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]))

    def test_maximally_mixed_fixed(self):
        k = realops.build_kraus(2)
        out = realops.apply_kraus(k, None, DensityMatrix(np.eye(2) / 2))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2)

    def test_aligned_channel_outputs_plus_hat(self):
        rho = states.gen_max_imaginary(4, 2, 17)
        k = realops.build_kraus(4)
        out = realops.apply_kraus(k, realops.align_for_state(rho), rho)
        np.testing.assert_allclose(out.matrix, plus_hat_projector(), atol=1e-10)

    def test_reality_preservation(self):
        for seed in range(10):
            d = 2 + seed % 6
            g = np.random.default_rng(seed).standard_normal((d, d))
            rho = DensityMatrix((g @ g.T) / np.trace(g @ g.T))
            k = realops.build_kraus(d)
            out = realops.apply_kraus(k, realops.align_for_state(rho), rho)
            assert np.max(np.abs(out.matrix.imag)) <= 1e-12

    def test_conjugation_covariance(self):
        for seed in range(10):
            d = 2 + seed % 6
            rho = states.gen_random_density(d, seed)
            k = realops.build_kraus(d)
            align = realops.align_for_state(rho)
            lhs = realops.apply_kraus(k, align, states.conj_state(rho)).matrix
            rhs = realops.apply_kraus(k, align, rho).matrix.conj()
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_general_real_kraus_sets_match_operator_sum(self):
        # Dense sets: the 0/1 family rotated by a random orthogonal Q, and a
        # random isometry cut into three-row operators.
        rng = np.random.default_rng(21)
        for d in (2, 3, 6, 9):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            w, _ = np.linalg.qr(rng.standard_normal((3 * d, d)))
            sets = [
                realops.RealKrausSet(d, 2, tuple(k @ q for k in realops.build_kraus(d).operators)),
                realops.RealKrausSet(d, 3, tuple(w.reshape(d, 3, d))),
            ]
            rho = states.gen_random_density(d, d)
            align = realops.align_for_state(rho)
            sigma = align @ rho.matrix @ align.T
            for kraus in sets:
                expected = sum(k @ sigma @ k.T for k in kraus.operators)
                out = realops.apply_kraus(kraus, align, rho).matrix
                assert np.max(np.abs(out - expected)) <= 1e-12
                via_dilation = realops.apply_dilation(realops.dilate(kraus), align, rho).matrix
                assert np.max(np.abs(via_dilation - expected)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            realops.apply_kraus(realops.build_kraus(3), None, states.gen_random_density(2, 0))

    def test_both_paths_check_the_alignment_shape(self):
        kraus = realops.build_kraus(3)
        rho = states.gen_random_density(3, 0)
        with pytest.raises(ValueError, match="alignment shape"):
            realops.apply_kraus(kraus, np.eye(4), rho)
        with pytest.raises(ValueError, match="alignment shape"):
            realops.apply_dilation(realops.dilate(kraus), np.eye(4), rho)


class TestConvert:
    def test_real_plus_state(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        assert abs(realops.convert_to_plus_hat(rho).fidelity - 0.5) <= 1e-12

    def test_partially_imaginary_bloch_state(self):
        rho = states.state_of(states.BlochVector(0, 0.5, 0))
        assert abs(realops.convert_to_plus_hat(rho).fidelity - 0.75) <= 1e-12

    def test_optimality_sweep(self):
        for seed in range(100):
            dim = 2 + seed % 7
            rho = states.gen_random_density(dim, seed)
            result = realops.convert_to_plus_hat(rho)
            optimum = 0.5 + measures.imaginarity_trace_norm(rho) / 4
            assert abs(result.fidelity - optimum) <= 1e-10
            assert result.fidelity <= optimum + 1e-10  # never exceeds the bound

    def test_no_single_alignment_serves_all_states(self):
        # the channel tuned for |+i> returns |-i><-i| unchanged: fidelity 0
        plus = states.from_pure(states.plus_i())
        minus = states.from_pure(states.minus_i())
        result = realops.convert_to_plus_hat(plus)
        out = realops.apply_kraus(result.kraus, result.align, minus)
        np.testing.assert_allclose(out.matrix, minus.matrix, atol=1e-12)
        assert abs(np.trace(plus_hat_projector() @ out.matrix).real) <= 1e-12


class TestDilation:
    def test_qubit_dilation_is_the_bit_flip(self):
        dil = realops.dilate(realops.build_kraus(2))
        assert dil.env_dim == 1 and dil.pad_dim == 0
        np.testing.assert_array_equal(dil.unitary, [[0.0, 1.0], [1.0, 0.0]])

    def test_even_dimension_no_padding(self):
        dil = realops.dilate(realops.build_kraus(4))
        assert dil.unitary.shape == (4, 4) and dil.pad_dim == 0

    def test_odd_dimension_padding(self):
        dil = realops.dilate(realops.build_kraus(3))
        assert dil.env_dim == 2 and dil.pad_dim == 1
        assert dil.unitary.shape == (4, 4)

    def test_orthogonality_residual(self):
        for d in range(2, 9):
            dil = realops.dilate(realops.build_kraus(d))
            n = dil.unitary.shape[0]
            assert np.max(np.abs(dil.unitary.T @ dil.unitary - np.eye(n))) <= 1e-12

    def test_channel_path_equality(self):
        for d in [2, 3, 4, 5, 6, 8, 17, 64, 256]:
            k = realops.build_kraus(d)
            dil = realops.dilate(k)
            for seed in range(25 if d <= 64 else 1):
                rho = states.gen_random_density(d, 1000 * d + seed)
                align = realops.align_for_state(rho)
                via_kraus = realops.apply_kraus(k, align, rho)
                via_dilation = realops.apply_dilation(dil, align, rho)
                assert np.max(np.abs(via_kraus.matrix - via_dilation.matrix)) <= 1e-12


class TestSharedChannel:
    """One frozen channel per dimension, applied as a row gather."""

    def test_one_set_per_dimension_in_a_bounded_cache(self):
        assert realops.build_kraus(6) is realops.build_kraus(6)
        assert realops.dilate(realops.build_kraus(6)) is realops.dilate(realops.build_kraus(6))
        maxsize = realops.build_kraus.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 8
        for d in range(2, 2 + 2 * maxsize):
            realops.build_kraus(d)
        assert realops.build_kraus.cache_info().currsize == maxsize

    def test_cached_dilation_is_read_only_and_equals_a_fresh_completion(self):
        for d in (2, 3, 8, 17, 64):
            kraus = realops.build_kraus(d)
            dil = realops.dilate(kraus)
            stacked = kraus.operators.swapaxes(0, 1).reshape(-1, d)
            assert dil.unitary.tobytes() == linalg.orthonormal_complete(stacked).tobytes()
            arrays = (kraus.operators, dil.unitary, *kraus._gather, *dil._gather)
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError):
                dil.unitary[0, 0] = 2.0

    def test_gather_equals_the_product_bitwise(self):
        for d in range(2, 49):
            kraus = realops.build_kraus(d)
            dil = realops.dilate(kraus)
            o = random_orthogonal(d, d)
            rho = states.gen_random_density(d, d)
            for w, gather in (
                (kraus.operators.swapaxes(0, 1), kraus._gather),
                (dil.unitary[:, :d].reshape(2, -1, d), dil._gather),
            ):
                assert gather is not None
                dense = realops._aligned_rows(w, None, o)
                assert realops._aligned_rows(w, gather, o).tobytes() == dense.tobytes()
                via_gather = realops._compress(w, gather, o, rho).matrix
                assert via_gather.tobytes() == realops._compress(w, None, o, rho).matrix.tobytes()

    def test_signed_one_hot_set_is_gathered(self):
        # Negating rows of the 0/1 family keeps it trace preserving.
        rng = np.random.default_rng(3)
        for d in (2, 5, 8, 13):
            ops = realops.build_kraus(d).operators * rng.choice([-1.0, 1.0], size=(1, 2, d))
            kraus = realops.RealKrausSet(d, 2, ops)
            assert np.any(kraus._gather[1] < 0)
            rho = states.gen_random_density(d, d)
            o = random_orthogonal(d, d + 1)
            sigma = o @ rho.matrix @ o.T
            expected = sum(k @ sigma @ k.T for k in kraus.operators)
            dil = realops.dilate(kraus)
            assert dil._gather is not None
            for out in (realops.apply_kraus(kraus, o, rho), realops.apply_dilation(dil, o, rho)):
                assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_dense_set_keeps_the_product(self):
        # A rotated 0/1 family, and a Hadamard set with two nonzeros per row.
        d = 6
        rotated = realops.build_kraus(d).operators @ random_orthogonal(d, 1)
        hadamard = np.kron(np.eye(d // 2), [[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        rho = states.gen_random_density(d, 2)
        o = random_orthogonal(d, 3)
        sigma = o @ rho.matrix @ o.T
        for kraus in (
            realops.RealKrausSet(d, 2, rotated),
            realops.RealKrausSet(d, 2, hadamard.reshape(d // 2, 2, d)),
        ):
            assert kraus._gather is None and realops.dilate(kraus)._gather is None
            expected = sum(k @ sigma @ k.T for k in kraus.operators)
            assert np.max(np.abs(realops.apply_kraus(kraus, o, rho).matrix - expected)) <= 1e-12

    def test_dilation_unitary_is_copied_and_frozen(self):
        given = np.array([[0.0, 1.0], [1.0, 0.0]])
        dil = realops.RealDilation(given, env_dim=1, pad_dim=0)
        assert given.flags.writeable and not dil.unitary.flags.writeable
        given[0, 0] = 5.0  # the caller's array is copied, not shared
        np.testing.assert_array_equal(dil.unitary, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            dil.unitary[0, 0] = 5.0
        with pytest.raises(ValueError, match="real"):
            realops.RealDilation(given * 1j, env_dim=1, pad_dim=0)


class TestSerialization:
    def test_kraus_round_trip_bit_exact(self):
        k = realops.build_kraus(5)
        back = json.loads(json.dumps(k.to_json()))
        assert back["in_dim"] == k.in_dim and back["out_dim"] == k.out_dim
        np.testing.assert_array_equal(np.array(back["operators"]), k.operators)
