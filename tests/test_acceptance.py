"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a PASS line when its assertions went through, so a
verbose run doubles as a checklist.
"""

import numpy as np

from imaginarity import gatesim, linalg, measures, realops, states
from imaginarity.measures import UNIVERSAL, ZERO
from imaginarity.states import BlochVector, DensityMatrix


def _passed(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _orthogonal_support_pair(dim, split, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    def mixture(cols):
        w = rng.random(cols.shape[1]) + 0.1
        w /= w.sum()
        return DensityMatrix(
            sum(wk * np.outer(cols[:, k], cols[:, k].conj()) for k, wk in enumerate(w))
        )

    return mixture(q[:, :split]), mixture(q[:, split:])


def test_criterion_1_canonical_values():
    rho = states.from_pure(states.plus_i())
    assert abs(measures.classify(rho).imag_fidelity - 1.0) <= 1e-12
    assert abs(measures.overlap_conj(rho)) <= 1e-12
    assert abs(measures.imaginarity_trace_norm(rho) - 2.0) <= 1e-12
    assert measures.classify(rho).verdict == UNIVERSAL
    _passed(1, "(canonical |+i> values)")


def test_criterion_2_dichotomy_sweep():
    reports = []
    expected = []
    for seed in range(1000):
        dim = 2 + seed % 7
        reports.append(measures.classify(states.gen_random_density(dim, seed)))
        expected.append(ZERO)
    for seed in range(200):
        dim = 2 + 2 * (seed % 4)
        rank = 1 + seed % (dim // 2)
        reports.append(measures.classify(states.gen_max_imaginary(dim, rank, seed)))
        expected.append(UNIVERSAL)
    for report, verdict in zip(reports, expected):
        assert report.verdict == verdict
        assert abs(report.imag_fidelity - 0.5 - report.imag_trace_norm / 4) <= 1e-12
    _passed(2, f"({len(reports)} states)")


def test_criterion_3_qubit_pole_grid():
    axis = np.linspace(-1.0, 1.0, 100)
    universal = 0
    checked = 0
    for x in axis:
        for y in axis:
            expect_universal = abs(y) >= 1 - 1e-9
            for z in axis:
                if x * x + y * y + z * z > 1.0:
                    continue
                checked += 1
                verdict = measures.classify_bloch((x, y, z))
                assert (verdict == UNIVERSAL) == expect_universal
                universal += verdict == UNIVERSAL
    # the even-count axis misses the poles, so no grid point qualifies
    assert universal == 0
    assert measures.classify_bloch((0.0, 1.0, 0.0)) == UNIVERSAL
    assert measures.classify_bloch((0.0, -1.0, 0.0)) == UNIVERSAL
    # spot-check the shortcut against the full-matrix classifier
    rng = np.random.default_rng(3)
    for _ in range(500):
        v = rng.standard_normal(3)
        v *= rng.random() / np.linalg.norm(v)
        b = BlochVector(*v)
        assert measures.classify_bloch(b) == measures.classify(states.state_of(b)).verdict
    _passed(3, f"({checked} in-ball grid points, {universal} universal)")


def test_criterion_4_orthogonality_equivalence():
    for seed in range(500):
        dim = 2 + seed % 7
        rho, sigma = _orthogonal_support_pair(dim, 1 + seed % (dim - 1), seed)
        rec = measures.orthogonality_tracedist_oracle(rho, sigma)
        assert abs(rec["trace_dist"] - 2.0) <= 1e-10
        assert rec["equivalence_holds"]
        witness = measures.dual_norm_witness(rho, sigma)
        assert abs(witness["value"] - rec["trace_dist"]) <= 1e-10
    generic = 0
    seed = 0
    while generic < 500:
        dim = 2 + seed % 7
        rho = states.gen_random_density(dim, 10_000 + seed)
        sigma = states.gen_random_density(dim, 20_000 + seed)
        seed += 1
        overlap = float(np.trace(rho.matrix @ sigma.matrix).real)
        if overlap <= 1e-6:
            continue
        generic += 1
        rec = measures.orthogonality_tracedist_oracle(rho, sigma)
        assert rec["trace_dist"] < 2.0 - 1e-8
        assert rec["equivalence_holds"]
        witness = measures.dual_norm_witness(rho, sigma)
        assert abs(witness["value"] - rec["trace_dist"]) <= 1e-10
    _passed(4, "(500 orthogonal + 500 generic pairs)")


def test_criterion_5_dilation_and_covariance():
    for d in range(2, 9):
        kraus = realops.build_kraus(d)
        dilation = realops.dilate(kraus)
        n = dilation.unitary.shape[0]
        assert np.max(np.abs(dilation.unitary.T @ dilation.unitary - np.eye(n))) <= 1e-12
        for s in range(100):
            rho = states.gen_random_density(d, 1_000 * d + s)
            align = realops.align_for_state(rho)
            via_kraus = realops.apply_kraus(kraus, align, rho)
            via_dilation = realops.apply_dilation(dilation, align, rho)
            assert np.max(np.abs(via_kraus.matrix - via_dilation.matrix)) <= 1e-12
            conj_out = realops.apply_kraus(kraus, align, states.conj_state(rho)).matrix
            assert np.max(np.abs(conj_out - via_kraus.matrix.conj())) <= 1e-12
    _passed(5, "(dims 2..8, 100 states each)")


def test_criterion_6_optimal_conversion():
    target = states.from_pure(states.plus_i()).matrix
    for seed in range(200):
        dim = 2 + seed % 7
        if seed % 4 == 0:
            rho = states.gen_max_imaginary(max(dim, 2), 1 + seed % max(1, dim // 2), seed)
            maximal = True
        else:
            rho = states.gen_random_density(dim, seed)
            maximal = False
        result = realops.convert_to_plus_hat(rho)
        optimum = 0.5 + measures.imaginarity_trace_norm(rho) / 4
        assert abs(result.fidelity - optimum) <= 1e-10
        assert result.fidelity <= optimum + 1e-10
        if maximal:
            assert abs(result.fidelity - 1.0) <= 1e-10
            assert np.max(np.abs(result.output.matrix - target)) <= 1e-10
    _passed(6, "(200 states, dims 2..8)")


def test_criterion_7_gadgets():
    plus_i = states.from_pure(states.plus_i()).matrix
    for inst in (gatesim.s_gadget(), gatesim.cs_gadget()):
        report = gatesim.verify_instance(inst, tolerance=1e-12)
        assert report.holds and report.max_deviation <= 1e-12
        assert report.residual_uniform()
        for residual in report.residuals:
            assert np.max(np.abs(residual - plus_i)) <= 1e-12
    assert np.max(np.abs(gatesim.CS @ gatesim.CS - gatesim.CZ)) <= 1e-12
    assert gatesim.cz_from_cs(tolerance=1e-12).holds
    for theta in np.linspace(0.0, 2.0 * np.pi, 64):
        assert gatesim.rx_from_s(float(theta)) <= 1e-12
    _passed(7, "(s, cs, cz, rx gadget checks)")


def test_criterion_8_phase_rigidity():
    rng = np.random.default_rng(8)
    unitaries = [_random_unitary(2 + i % 5, rng) for i in range(50)]
    for i in range(50):
        d = 2 + i % 5
        o, _ = np.linalg.qr(rng.standard_normal((d, d)))
        unitaries.append(np.exp(1j * rng.uniform(-np.pi, np.pi)) * o)
    for v in unitaries:
        n = v.shape[0]
        gram = v.T @ v
        psis = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        brute = float(np.min(np.abs(np.einsum("ki,ij,kj->k", psis.conj(), gram, psis))))
        res = gatesim.phase_rigidity(v)
        assert res.is_phase_multiple_of_identity == (brute >= 1 - 1e-9)
        if res.is_phase_multiple_of_identity:
            assert res.realified_is_real
    assert not gatesim.phase_rigidity(gatesim.S).is_phase_multiple_of_identity
    res = gatesim.phase_rigidity(np.exp(1j * np.pi / 4) * np.eye(2))
    assert abs(res.eta - np.pi / 2) <= 1e-12 and res.realified_is_real
    _passed(8, "(100 unitaries vs sampling oracle)")


def test_criterion_9_end_to_end_pipeline():
    for d in (2, 4, 6, 8):
        for rank in range(1, d // 2 + 1):
            rho = states.gen_max_imaginary(d, rank, 31 * d + rank)
            result = gatesim.theorem1_pipeline(rho)
            assert result.report.verdict == UNIVERSAL
            assert abs(result.conversion.fidelity - 1.0) <= 1e-10
            assert result.gadget_verified
    rng = np.random.default_rng(99)
    for seed in range(100):
        dim = 2 + seed % 7
        rho = states.gen_random_density(dim, 50_000 + seed)
        result = gatesim.theorem1_pipeline(rho)
        assert result.report.verdict == ZERO
        assert result.best_fidelity < 1.0
        assert result.gadget_verified is None
    # Hilbert-Schmidt consistency on trivial real-target instances
    for seed in range(20):
        rho = states.gen_random_density(2 + seed % 4, seed)
        od, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rec = gatesim.hs_consistency(gatesim.real_target_instance(rho, od))
        assert rec["max_deviation"] <= 1e-10
    _passed(9, "(pipeline, refusals, consistency)")
