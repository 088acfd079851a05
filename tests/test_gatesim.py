import dataclasses
import warnings

import numpy as np
import pytest

from imaginarity import gatesim, linalg, measures, realops, states
from imaginarity.gatesim import (
    CS,
    CZ,
    CCZ,
    GDG,
    H,
    S,
    SDG,
    SimulationInstance,
    X,
    Y,
    Z,
    cs_gadget,
    cz_from_cs,
    hs_consistency,
    phase_rigidity,
    real_target_instance,
    rx_from_s,
    s_gadget,
    theorem1_pipeline,
    verify_instance,
)
from imaginarity.states import BlochVector, DensityMatrix


def basis_state(dim, index=0):
    """The pure state |index> of dimension dim."""
    return states.PureState(np.eye(dim)[index])


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGateLibrary:
    def test_defining_entries(self):
        np.testing.assert_array_equal(H * np.sqrt(2), [[1, 1], [1, -1]])
        np.testing.assert_array_equal(S, [[1, 0], [0, 1j]])
        np.testing.assert_array_equal(Z, [[1, 0], [0, -1]])
        np.testing.assert_array_equal(CS, np.diag([1, 1, 1, 1j]))
        np.testing.assert_array_equal(CCZ, np.diag([1, 1, 1, 1, 1, 1, 1, -1]))

    def test_all_constants_unitary(self):
        for g in (H, S, SDG, X, Y, Z, GDG, CS, CZ, CCZ):
            n = g.shape[0]
            assert np.max(np.abs(g.conj().T @ g - np.eye(n))) <= 1e-14

    def test_real_members(self):
        for g in (H, X, Z, GDG, CZ, CCZ, gatesim.ry(1.2)):
            assert np.max(np.abs(g.imag)) == 0

    def test_g_rotates_plus_i_by_minus_i(self):
        plus_i = states.plus_i().amplitudes
        np.testing.assert_allclose(gatesim.G @ plus_i, -1j * plus_i, atol=1e-15)
        np.testing.assert_allclose(GDG @ plus_i, 1j * plus_i, atol=1e-15)


def probe_loop(inst):
    """Reference verifier: one dense kron and one partial trace per spanning probe."""
    n = inst.data_dim
    eye = np.eye(n, dtype=complex)
    probes = [eye[j] for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            probes += [(eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)]
    anc = states.from_pure(basis_state(inst.ancilla_dim)).matrix
    left_in = np.kron(inst.resource.matrix, anc)
    left_out = np.kron(inst.residual.matrix, states.from_pure(inst.out_ancilla).matrix)
    dims = [inst.residual.dim, inst.out_ancilla.dim, n]
    max_dev, residuals = 0.0, []
    for psi in probes:
        lhs = inst.unitary @ np.kron(left_in, np.outer(psi, psi.conj())) @ inst.unitary.conj().T
        vpsi = inst.target @ psi
        rhs = np.kron(left_out, np.outer(vpsi, vpsi.conj()))
        max_dev = max(max_dev, float(np.max(np.abs(lhs - rhs))))
        residuals.append(linalg.partial_trace(lhs, dims, keep={0}))
    return max_dev, residuals


def oracle_instances():
    """Random real targets spoiled by small phases, one with a 2-dim ancilla,
    entangling instances, and the gadgets."""
    rng = np.random.default_rng(17)
    out = []
    for i in range(30):
        n, d = 2 + i % 5, 2 + i % 3
        od, _ = np.linalg.qr(rng.standard_normal((n, n)))
        orr, _ = np.linalg.qr(rng.standard_normal((d, d)))
        inst = real_target_instance(states.gen_random_density(d, 300 + i), od, orr)
        phases = np.exp(1j * rng.uniform(-0.3, 0.3, n))
        out.append(dataclasses.replace(inst, target=od * phases))
    # ancilla |0> -> |w>: U = O_r (x) R (x) O_d with R real orthogonal, R|0> = w
    rot = gatesim.ry(1.1).real
    od, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rho = states.gen_random_density(2, 7)
    out.append(
        SimulationInstance(
            unitary=np.kron(np.kron(H.real, rot), od).astype(complex),
            resource=rho,
            ancilla_dim=2,
            target=od * np.exp(1j * rng.uniform(-0.3, 0.3, 3)),
            residual=DensityMatrix(H @ rho.matrix @ H),
            out_ancilla=states.PureState(rot[:, 0].astype(complex)),
        )
    )
    # entangling U: the residual depends on the probe, so its order and signs matter
    for n, d in ((2, 2), (3, 2), (2, 3)):
        u, _ = np.linalg.qr(rng.standard_normal((n * d, n * d)))
        rho = states.gen_random_density(d, n + 10 * d)
        out.append(
            SimulationInstance(
                unitary=u.astype(complex),
                resource=rho,
                ancilla_dim=1,
                target=random_unitary(n, rng),
                residual=rho,
                out_ancilla=basis_state(1),
            )
        )
    base = cs_gadget()
    out += [
        s_gadget(),
        base,
        dataclasses.replace(base, unitary=base.unitary @ base.unitary, target=CZ),
    ]
    return out


class TestVerifyInstance:
    def test_matches_per_probe_loop(self):
        deviations = []
        for inst in oracle_instances():
            n = inst.data_dim
            max_dev, residuals = probe_loop(inst)
            report = verify_instance(inst)
            assert len(report.residuals) == report.probe_count == n * n
            assert report.holds == (max_dev <= 1e-10)
            assert abs(report.max_deviation - max_dev) <= 1e-14
            for got, want in zip(report.residuals, residuals):
                assert np.max(np.abs(got - want)) <= 1e-14
            deviations.append(max_dev)
        # the spoiled targets keep the comparison away from zero
        assert sum(dev > 1e-3 for dev in deviations) >= 30

    def test_factorized_real_targets_hold(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            rho = states.gen_random_density(2 + seed % 3, seed)
            od, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            orr, _ = np.linalg.qr(rng.standard_normal((rho.dim, rho.dim)))
            inst = real_target_instance(rho, od, orr)
            report = verify_instance(inst, tolerance=1e-12)
            assert report.holds

    def test_s_gadget_holds(self):
        report = verify_instance(s_gadget(), tolerance=1e-12)
        assert report.holds
        assert report.max_deviation <= 1e-13

    def test_wrong_target_phase_fails(self):
        base = s_gadget()
        wrong = SimulationInstance(
            unitary=base.unitary,
            resource=base.resource,
            ancilla_dim=1,
            target=Z @ S,
            residual=base.residual,
            out_ancilla=base.out_ancilla,
        )
        report = verify_instance(wrong)
        assert not report.holds
        assert report.max_deviation > 0.1

    def test_wrong_cs_target_phase_fails(self):
        # CZ @ CS differs from CS only by relative phases between basis
        # states, so only the off-diagonal matrix units see the error.
        wrong = dataclasses.replace(cs_gadget(), target=CZ @ CS)
        assert probe_loop(wrong)[0] > 0.1
        report = verify_instance(wrong)
        assert not report.holds
        assert report.max_deviation > 0.1

    def test_rejects_non_orthogonal_unitary(self):
        base = s_gadget()
        bad = SimulationInstance(
            unitary=np.eye(4) * 0.5,
            resource=base.resource,
            ancilla_dim=1,
            target=S,
            residual=base.residual,
            out_ancilla=base.out_ancilla,
        )
        # An invalid instance caches nothing, so it raises on every call.
        for _ in range(2):
            with pytest.raises(ValueError, match="orthogonal"):
                verify_instance(bad)
        # Either side of the EXACT_TOL boundary on max |U^T U - I|.
        for factor, accepted in ((0.5, True), (2.0, False)):
            u = base.unitary * np.sqrt(1.0 + factor * linalg.EXACT_TOL)
            scaled = dataclasses.replace(base, unitary=u)
            if accepted:
                assert verify_instance(scaled).holds
                continue
            with pytest.raises(ValueError, match="orthogonal"):
                verify_instance(scaled)

    def test_rejects_nan_in_unitary(self):
        base = s_gadget()
        u = base.unitary.copy()
        u[0, 0] = np.nan
        bad = dataclasses.replace(base, unitary=u)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite"):
                verify_instance(bad)

    def test_rejects_nan_in_target(self):
        base = s_gadget()
        v = base.target.copy()
        v[1, 1] = np.nan
        bad = dataclasses.replace(base, target=v)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite"):
                verify_instance(bad)

    def test_rejects_dimension_mismatch(self):
        base = s_gadget()
        bad = SimulationInstance(
            unitary=base.unitary,
            resource=states.gen_random_density(3, 0),
            ancilla_dim=1,
            target=S,
            residual=base.residual,
            out_ancilla=base.out_ancilla,
        )
        with pytest.raises(ValueError, match="dimension"):
            verify_instance(bad)


class TestVerifyOnce:
    @pytest.fixture
    def probe_calls(self, monkeypatch):
        calls = []
        original = gatesim._probe_deviations

        def counting(inst):
            calls.append(inst)
            return original(inst)

        monkeypatch.setattr(gatesim, "_probe_deviations", counting)
        return calls

    def test_probes_run_once_per_instance(self, probe_calls):
        # a resource 4e-11 from |+i><+i| deviates by 1e-11, between the tolerances
        plus_i = states.from_pure(states.plus_i()).matrix
        inst = s_gadget(DensityMatrix((1 - 4e-11) * plus_i + 4e-11 * np.eye(2) / 2))
        loose = verify_instance(inst)
        strict = verify_instance(inst, tolerance=linalg.EXACT_TOL)
        rec = hs_consistency(inst)
        assert probe_calls == [inst]
        assert linalg.EXACT_TOL < loose.max_deviation < linalg.CHECK_TOL
        assert loose.holds and not strict.holds
        assert strict.max_deviation == loose.max_deviation
        assert strict.residuals is loose.residuals
        assert rec["max_deviation"] <= linalg.CHECK_TOL

    def test_replace_recomputes(self, probe_calls):
        inst = s_gadget()
        assert verify_instance(inst).holds
        wrong = dataclasses.replace(inst, target=SDG)
        assert not verify_instance(wrong).holds
        assert verify_instance(inst).holds
        assert probe_calls == [inst, wrong]

    def test_caller_arrays_are_copied(self):
        base = s_gadget()
        u, v = np.array(base.unitary), np.array(base.target)
        inst = dataclasses.replace(base, unitary=u, target=v)
        u[0, 0] = np.nan
        v[1, 1] = -1.0
        assert verify_instance(inst).holds
        np.testing.assert_array_equal(inst.unitary, base.unitary)
        np.testing.assert_array_equal(inst.target, S)

    def test_arrays_are_read_only_and_complex(self):
        inst = real_target_instance(states.gen_random_density(2, 3), H.real)
        for array in (inst.unitary, inst.target):
            assert array.dtype == complex
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


class TestFixedPartCache:
    """The unitary's checks, probe factors and `low` are cached by content."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        gatesim._fixed_part.cache_clear()

    @staticmethod
    def info():
        return gatesim._fixed_part.cache_info()

    @staticmethod
    def outputs(inst):
        """Every output of an instance, as bytes."""
        dev, residuals = gatesim._probe_deviations(inst)
        report = verify_instance(inst)
        hs = hs_consistency(inst)
        return (
            dev.tobytes(),
            residuals.tobytes(),
            report.residuals.tobytes(),
            np.array([report.max_deviation, hs["lhs"], *hs["rhs_range"], hs["max_deviation"]]).tobytes(),
        )

    def test_bound_is_eight(self):
        assert self.info().maxsize == 8

    def test_equal_content_shares_one_entry(self):
        for d, rank, seed in ((2, 1, 0), (4, 2, 1), (6, 1, 2), (8, 3, 3), (16, 5, 4)):
            assert theorem1_pipeline(states.gen_max_imaginary(d, rank, seed)).gadget_verified
        info = self.info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)

    def test_target_one_ulp_away_gets_its_own_entry(self):
        v = S.copy()
        v[1, 1] = 1j * np.nextafter(1.0, 2.0)
        exact, nudged = s_gadget(), dataclasses.replace(s_gadget(), target=v)
        dev_exact = gatesim._probe_deviations(exact)[0]
        dev_nudged = gatesim._probe_deviations(nudged)[0]
        info = self.info()
        assert (info.misses, info.currsize) == (2, 2)
        assert nudged._fixed[0] is not exact._fixed[0]
        assert dev_nudged.tobytes() != dev_exact.tobytes()
        assert verify_instance(nudged).max_deviation > verify_instance(exact).max_deviation

    @pytest.mark.parametrize(
        "field, spoil, match",
        [("unitary", "nan", "non-finite"), ("unitary", "halve", "orthogonal"), ("target", "nan", "non-finite")],
    )
    def test_invalid_instance_raises_on_every_call_and_leaves_no_entry(self, field, spoil, match):
        base = s_gadget()
        array = getattr(base, field).copy()
        if spoil == "nan":
            array[0, 0] = np.nan
        else:
            array *= 0.5
        bad = dataclasses.replace(base, **{field: array})
        for call in (verify_instance, verify_instance, hs_consistency):
            with pytest.raises(ValueError, match=match):
                call(bad)
        info = self.info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 0)

    def test_replace_recomputes_the_deviations_of_a_shared_entry(self):
        inst = s_gadget()
        assert verify_instance(inst).holds
        zero = states.from_pure(basis_state(2))
        real = dataclasses.replace(inst, resource=zero, residual=zero)
        assert not verify_instance(real).holds
        assert real._fixed is inst._fixed
        info = self.info()
        assert (info.misses, info.hits) == (1, 1)

    def test_warm_results_equal_cold_results_bitwise(self):
        rho = states.gen_random_density(3, 5)
        rng = np.random.default_rng(5)
        od, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        orr, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        builders = {
            "s": lambda: s_gadget(realops.convert_to_plus_hat(states.gen_max_imaginary(4, 2, 3)).output),
            "cs": cs_gadget,
            "real_target": lambda: real_target_instance(rho, od, orr),
        }
        for name, build in builders.items():
            build()._fixed
            warm = self.outputs(build())
            cz_warm = cz_from_cs()
            assert self.info().hits >= 1
            gatesim._fixed_part.cache_clear()
            cold = self.outputs(build())
            cz_cold = cz_from_cs()
            assert warm == cold, name
            assert cz_warm.max_deviation == cz_cold.max_deviation
            assert cz_warm.residuals.tobytes() == cz_cold.residuals.tobytes()

    def test_ninth_gadget_evicts_the_least_recently_used_entry(self):
        rho = states.gen_random_density(2, 1)

        def gadget(k):
            return real_target_instance(rho, gatesim.ry(0.1 * (k + 1)).real)

        for k in range(8):
            verify_instance(gadget(k))
        verify_instance(gadget(0))  # now the most recently used
        verify_instance(gadget(8))
        assert self.info().currsize == 8
        misses = self.info().misses
        verify_instance(gadget(0))
        assert self.info().misses == misses
        verify_instance(gadget(1))
        assert self.info().misses == misses + 1

    def test_caller_arrays_cannot_reach_a_cached_entry(self):
        base = s_gadget()
        u, v = np.array(base.unitary), np.array(base.target)
        inst = dataclasses.replace(base, unitary=u, target=v)
        factors, low, *conjugates = inst._fixed
        before = factors.tobytes()
        u[:] = np.nan
        v[:] = 0.0
        again = s_gadget()
        assert again._fixed[0] is factors and again._fixed[1] == low
        assert factors.tobytes() == before
        assert verify_instance(again).holds
        with pytest.raises(ValueError, match="read-only"):
            factors[0, 0, 0] = 1.0
        for array in conjugates:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0


def parent_probe_deviations(inst):
    """`_probe_deviations` as written before the conjugates were cached."""
    f = inst._fixed[0]
    rho = inst.resource.matrix
    n2, d, r = f.shape[0], rho.shape[0], inst.residual.dim
    phi = inst.out_ancilla.amplitudes
    ro = r * phi.size
    sigma = inst.residual.matrix[:, None, :, None] * (phi[:, None] * phi.conj())[:, None, :]
    m = np.zeros((d + ro, d + ro), dtype=complex)
    m[:d, :d] = rho
    m[d:, d:] = -sigma.reshape(ro, ro)
    fm = f @ m
    fc = np.conjugate(f)
    residuals = fm[:, :, :d].reshape(n2, r, -1) @ fc[:, :, :d].reshape(n2, r, -1).swapaxes(1, 2)
    return fm @ fc.swapaxes(1, 2), residuals


def bitwise_instances():
    """The oracle's instances (S, CS, real targets, a 2-dim out-ancilla), real_target
    with 2- and 4-dim resources on 8 data levels, and a phased 1-dim out-ancilla."""
    rng = np.random.default_rng(24)
    out = oracle_instances()
    for d in (2, 4):
        od, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        orr, _ = np.linalg.qr(rng.standard_normal((d, d)))
        out.append(real_target_instance(states.gen_random_density(d, d), od, orr))
    converted = realops.convert_to_plus_hat(states.gen_max_imaginary(4, 2, 3)).output
    phase = states.PureState(np.array([np.exp(1.3j)]))
    out.append(dataclasses.replace(s_gadget(converted), out_ancilla=phase))
    return out


class TestProbeDeviationsBitwise:
    """The cached conjugates and the scalar sigma keep every bit of the outputs."""

    def test_deviations_and_residuals_match_the_parent_formula(self):
        instances = bitwise_instances()
        assert {inst.out_ancilla.dim for inst in instances} == {1, 2}
        for inst in instances:
            dev, residuals = gatesim._probe_deviations(inst)
            ref_dev, ref_residuals = parent_probe_deviations(inst)
            assert dev.tobytes() == ref_dev.tobytes()
            assert residuals.tobytes() == ref_residuals.tobytes()
            report = verify_instance(inst)
            assert report.max_deviation == float(np.abs(ref_dev).max())
            assert report.residuals.tobytes() == ref_residuals.tobytes()


class TestIdentityEquality:
    """Array-holding results compare and hash by identity, without raising."""

    BUILDERS = {
        "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2),
        "PureState": states.plus_i,
        "SkewCanonicalForm": lambda: linalg.skew_canonical(gatesim.G.real),
        "RealKrausSet": lambda: realops.RealKrausSet(4, 2, realops.build_kraus(4).operators),
        "RealDilation": lambda: realops.RealDilation(np.eye(2), env_dim=1, pad_dim=0),
        "ConversionResult": lambda: realops.convert_to_plus_hat(states.gen_random_density(3, 1)),
        "SimulationInstance": s_gadget,
        "VerificationReport": lambda: verify_instance(s_gadget()),
        "PhaseRigidityResult": lambda: phase_rigidity(H),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_compares_and_hashes_by_identity(self, name):
        a, b = self.BUILDERS[name](), self.BUILDERS[name]()
        assert type(a).__name__ == name
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert a in [b, a] and a not in [b]
        assert len({a, b, a}) == 2

    def test_gadgets_are_not_members_of_each_other(self):
        assert s_gadget() not in [cs_gadget()]

    def test_classification_report_keeps_value_equality(self):
        rho = states.gen_random_density(3, 1)
        assert measures.classify(rho) == measures.classify(rho)
        assert hash(measures.classify(rho)) == hash(measures.classify(rho))


class TestResiduals:
    def test_s_gadget_catalyst_preserved(self):
        report = verify_instance(s_gadget())
        assert report.holds and report.residual_uniform()
        target = states.from_pure(states.plus_i()).matrix
        for r in report.residuals:
            assert np.max(np.abs(r - target)) <= 1e-12

    def test_cs_gadget_catalyst_preserved(self):
        report = verify_instance(cs_gadget())
        assert report.holds and report.residual_uniform()
        target = states.from_pure(states.plus_i()).matrix
        for r in report.residuals:
            assert np.max(np.abs(r - target)) <= 1e-12

    def test_trivial_instance_residual_is_input(self):
        rho = states.gen_random_density(2, 4)
        report = verify_instance(real_target_instance(rho, H))
        assert report.holds and report.residual_uniform()
        np.testing.assert_allclose(report.residuals[0], rho.matrix, atol=1e-12)

    def test_residual_uniform_matches_reference(self):
        uniform = []
        for inst in oracle_instances():
            n, r = inst.data_dim, inst.residual.dim
            _, residuals = probe_loop(inst)
            want = all(np.max(np.abs(res - residuals[0])) <= 1e-12 for res in residuals)
            report = verify_instance(inst)
            assert report.residuals.shape == (n * n, r, r)
            assert not report.residuals.flags.writeable
            assert report.residual_uniform() == want
            uniform.append(want)
        # the entangling instances leave a probe-dependent residual
        assert not all(uniform)

    def test_entangling_unitary_fails_before_residual_check(self):
        base = s_gadget()
        # swap on [resource, data] entangles the registers
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * j + i, 2 * i + j] = 1.0
        corrupted = SimulationInstance(
            unitary=swap.astype(complex),
            resource=base.resource,
            ancilla_dim=1,
            target=S,
            residual=base.residual,
            out_ancilla=base.out_ancilla,
        )
        assert not verify_instance(corrupted).holds
        with pytest.raises(ValueError, match="does not verify"):
            hs_consistency(corrupted)


class TestHsConsistency:
    def test_s_gadget_both_sides_vanish(self):
        rec = hs_consistency(s_gadget())
        assert rec["lhs"] <= 1e-14
        assert all(r <= 1e-12 for r in rec["rhs_range"])

    def test_real_resource_real_target(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))  # |+><+|
        rec = hs_consistency(real_target_instance(rho, H))
        assert abs(rec["lhs"] - 1.0) <= 1e-12
        assert rec["max_deviation"] <= 1e-10

    def test_partially_imaginary_resource(self):
        # tr[rho rho*] = (1 + x^2 - y^2 + z^2)/2 = 0.375 at Bloch (0, 0.5, 0)
        rho = states.state_of(BlochVector(0, 0.5, 0))
        rec = hs_consistency(real_target_instance(rho, H))
        assert abs(rec["lhs"] - 0.375) <= 1e-12
        assert rec["max_deviation"] <= 1e-10


    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2])
    def test_supremum_in_the_interior_of_the_numerical_range(self, theta):
        # controlled R(theta) on a near-|+i> resource simulates diag(1, e^{i theta});
        # |<psi|V^T V|psi>| fills [cos(theta), 1], so the largest deviation is
        # tr[rho rho*] sin^2(theta), reached only by an exact supremum.
        c, s = np.cos(theta), np.sin(theta)
        eps = 1e-11
        plus_i = states.from_pure(states.plus_i()).matrix
        rho = DensityMatrix((1 - eps) * plus_i + eps * np.eye(2) / 2)
        inst = SimulationInstance(
            unitary=np.kron(np.eye(2), np.diag([1.0, 0.0]))
            + np.kron([[c, s], [-s, c]], np.diag([0.0, 1.0])),
            resource=rho,
            ancilla_dim=1,
            target=np.diag([1.0, np.exp(1j * theta)]),
            residual=rho,
            out_ancilla=basis_state(1),
        )
        rec = hs_consistency(inst)
        want = measures.overlap_conj(rho) * np.sin(theta) ** 2
        assert abs(rec["max_deviation"] - want) <= 1e-9 * want


class TestPhaseRigidity:
    def test_real_orthogonal_target(self):
        res = phase_rigidity(H)
        assert res.is_phase_multiple_of_identity
        assert abs(res.eta) <= 1e-12
        assert res.realified_is_real

    def test_global_phase_identity(self):
        res = phase_rigidity(np.exp(1j * np.pi / 4) * np.eye(2))
        assert res.is_phase_multiple_of_identity
        assert abs(res.eta - np.pi / 2) <= 1e-12
        np.testing.assert_allclose(res.realified, np.eye(2), atol=1e-12)

    def test_s_gate_rejected(self):
        res = phase_rigidity(S)
        assert not res.is_phase_multiple_of_identity
        np.testing.assert_allclose(res.gram, np.diag([1, -1]), atol=1e-14)

    @staticmethod
    def spread_unitary(spread):
        # V = R diag(1, e^{i spread / 2}) R^T with R a 45-degree rotation:
        # W = V^T V has eigenvalue angles {0, spread}, equal diagonal entries
        # and off-diagonal entries of modulus about spread / 2.
        r = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        return r @ np.diag([1.0, np.exp(0.5j * spread)]) @ r.T

    def test_angular_spread_just_within_tolerance_is_rigid(self):
        res = phase_rigidity(self.spread_unitary(0.9 * linalg.CHECK_TOL))
        assert res.is_phase_multiple_of_identity and res.realified_is_real
        assert abs(res.eta - 0.45 * linalg.CHECK_TOL) <= 1e-15

    def test_angular_spread_just_past_tolerance_is_not_rigid(self):
        # The entrywise test read |W_01| = 0.55 CHECK_TOL here and accepted it.
        v = self.spread_unitary(1.1 * linalg.CHECK_TOL)
        res = phase_rigidity(v)
        assert not res.is_phase_multiple_of_identity
        assert res.eta is None and res.realified is None
        assert phase_rigidity(v, tolerance=1.2 * linalg.CHECK_TOL).is_phase_multiple_of_identity

    def test_gram_is_the_one_reading_hs_consistency_uses(self):
        v = random_unitary(4, np.random.default_rng(11))
        w, gap = gatesim._gram_gap(v)
        assert phase_rigidity(v).gram.tobytes() == w.tobytes() == (v.T @ v).tobytes()
        one = DensityMatrix(np.eye(1))
        inst = SimulationInstance(np.eye(4), one, 1, v, one, basis_state(1))
        assert inst._fixed[1] == max(0.0, -float(np.cos(gap / 2.0)))

    def test_rejects_non_unitary(self):
        for bad in (np.eye(2) * 0.5, np.array([[np.nan, 0.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="unitary"):
                phase_rigidity(bad)

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (2, 2, 2)])
    def test_rejects_non_square_input(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            phase_rigidity(np.ones(shape))

    def test_soundness_against_sampling_oracle(self):
        rng = np.random.default_rng(9)
        cases = []
        for i in range(50):
            cases.append(random_unitary(2 + i % 5, rng))  # generic: not rigid
        for i in range(50):
            o, _ = np.linalg.qr(rng.standard_normal((2 + i % 5, 2 + i % 5)))
            cases.append(np.exp(1j * rng.uniform(-np.pi, np.pi)) * o)  # rigid
        for v in cases:
            n = v.shape[0]
            gram = v.T @ v
            psis = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
            psis /= np.linalg.norm(psis, axis=1, keepdims=True)
            brute = float(np.min(np.abs(np.einsum("ki,ij,kj->k", psis.conj(), gram, psis))))
            assert phase_rigidity(v).is_phase_multiple_of_identity == (brute >= 1 - 1e-9)

    def test_zero_resource_instances_have_rigid_targets(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            rho = states.gen_random_density(2, seed)
            if measures.overlap_conj(rho) <= 1e-6:
                continue
            od, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            inst = real_target_instance(rho, od)
            assert verify_instance(inst).holds
            assert phase_rigidity(inst.target).is_phase_multiple_of_identity


class TestGadgets:
    @pytest.mark.parametrize(
        "data, resource",
        [
            (np.eye(2), [[1e200, 0], [0, 1]]),
            ([[1e200, 0], [0, 1]], None),
            (np.eye(2), [[np.nan, 0], [0, 1]]),
            ([[1.0, 0], [0, 1e308]], [[1e308, 0], [0, 1]]),
        ],
    )
    def test_real_target_checks_its_orthogonals_before_any_product(self, data, resource):
        rho = states.gen_random_density(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="instance unitary is not orthogonal"):
                real_target_instance(rho, data, resource)

    @pytest.mark.parametrize("data, resource", [(np.ones(2), None), (np.eye(2), np.ones((2, 3)))])
    def test_real_target_needs_square_orthogonals(self, data, resource):
        with pytest.raises(ValueError, match="must be square"):
            real_target_instance(states.gen_random_density(2, 1), data, resource)

    def test_real_target_unitary_is_the_kron_product_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for d in (1, 2, 3, 4):
            for n in (1, 2, 5, 8):
                od, _ = np.linalg.qr(rng.standard_normal((n, n)))
                orr, _ = np.linalg.qr(rng.standard_normal((d, d)))
                od = od * np.exp(1j * rng.uniform(0, 7, n))  # complex entries too
                inst = real_target_instance(states.gen_random_density(d, n), od, orr)
                assert inst.unitary.tobytes() == np.kron(orr.astype(complex), od).tobytes()
                assert inst.unitary.shape == (d * n, d * n)

    def test_s_gadget_on_basis_states(self):
        inst = s_gadget()
        plus_i = states.plus_i().amplitudes
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        np.testing.assert_allclose(inst.unitary @ np.kron(plus_i, e0), np.kron(plus_i, e0), atol=1e-15)
        np.testing.assert_allclose(
            inst.unitary @ np.kron(plus_i, e1), 1j * np.kron(plus_i, e1), atol=1e-15
        )

    def test_s_gadget_generates_plus_hat_from_plus(self):
        inst = s_gadget()
        plus_i = states.plus_i().amplitudes
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        out = inst.unitary @ np.kron(plus_i, plus)
        np.testing.assert_allclose(out, np.kron(plus_i, states.plus_i().amplitudes), atol=1e-15)

    def test_cs_gadget_phase_on_11(self):
        inst = cs_gadget()
        plus_i = states.plus_i().amplitudes
        e11 = np.zeros(4, dtype=complex)
        e11[3] = 1.0
        np.testing.assert_allclose(
            inst.unitary @ np.kron(plus_i, e11), 1j * np.kron(plus_i, e11), atol=1e-15
        )

    def test_cs_gadget_verifies(self):
        report = verify_instance(cs_gadget(), tolerance=1e-12)
        assert report.holds and report.max_deviation <= 1e-13

    def test_cs_squared_is_cz(self):
        np.testing.assert_allclose(CS @ CS, CZ, atol=1e-15)
        assert cz_from_cs().holds

    def test_rx_identity_on_theta_grid(self):
        assert rx_from_s(0.0) <= 1e-15
        for theta in np.linspace(0, 2 * np.pi, 64):
            assert rx_from_s(float(theta)) <= 1e-12

    def test_conjugate_covariance_of_s_gadget(self):
        # same U verifies (rho*, V*, rho'*): an S-dagger gadget on |-i>
        base = s_gadget()
        conj_inst = SimulationInstance(
            unitary=base.unitary,
            resource=states.conj_state(base.resource),
            ancilla_dim=1,
            target=SDG,
            residual=states.conj_state(base.residual),
            out_ancilla=base.out_ancilla,
        )
        report = verify_instance(conj_inst, tolerance=1e-12)
        assert report.holds


class TestPipeline:
    def test_plus_i_runs_through(self):
        result = theorem1_pipeline(states.from_pure(states.plus_i()))
        assert result.report.verdict == measures.UNIVERSAL
        assert result.gadget_verified
        np.testing.assert_allclose(
            result.conversion.output.matrix,
            states.from_pure(states.plus_i()).matrix,
            atol=1e-12,
        )

    def test_constructed_state_runs_through(self):
        result = theorem1_pipeline(states.gen_max_imaginary(8, 3, 21))
        assert result.report.verdict == measures.UNIVERSAL
        assert result.gadget_verified
        assert abs(result.conversion.fidelity - 1.0) <= 1e-10

    def test_real_state_refused(self):
        result = theorem1_pipeline(DensityMatrix(np.full((2, 2), 0.5)))
        assert result.report.verdict == measures.ZERO
        assert result.gadget_verified is None
        assert abs(result.best_fidelity - 0.5) <= 1e-12

    def test_zero_states_report_partial_fidelity(self):
        for seed in range(10):
            rho = states.gen_random_density(4, seed)
            result = theorem1_pipeline(rho)
            assert result.report.verdict == measures.ZERO
            expected = 0.5 + measures.imaginarity_trace_norm(rho) / 4
            assert abs(result.best_fidelity - expected) <= 1e-12
            assert result.best_fidelity < 1

    def test_one_canonical_form_per_state(self, monkeypatch):
        # From d = 3 on, a state's form and `skew_canonical` both end in
        # `_canonical_form`, so that is where one form per state is counted.
        calls = []
        original = linalg._canonical_form

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_canonical_form", counting)
        for rho in (states.gen_max_imaginary(8, 3, 4), states.gen_random_density(8, 4)):
            calls.clear()
            theorem1_pipeline(rho)
            realops.convert_to_plus_hat(rho)
            assert calls == [(8, 8)]

    def test_gadget_serialization(self):
        report = verify_instance(s_gadget()).to_json()
        assert set(report) == {"holds", "max_deviation", "probe_count", "residual_uniform"}
