"""One entry-bound pass and one isometry check, behind every entry point.

* `linalg._within(m, bound)` bounds every |Re| and |Im| of m, and a NaN
  fails it.
* `linalg._isometry_deviation(m)` is max |M^dag M - I| bit for bit, or inf
  for a matrix no isometry can be, without forming its Gram product.
* Every entry point that accepts an orthogonal, unitary, isometry or
  dilation rejects the same bad matrices with its own message or exit
  code, and lets no numpy warning escape.
* `realops.RealDilation` rejects a non-square or non-orthogonal matrix, and
  keeps the residual it measured, which `convert` prints.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from imaginarity import cli, gatesim, linalg, realops, states

BOUND = linalg._ISOMETRY_ENTRY_BOUND


def reference_deviation(m):
    """The inline formula `_isometry_deviation` stands in for."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))


def bounded(shape, rng, complex_=False):
    """A random matrix with every |Re| and |Im| in [0, 1]."""
    m = rng.uniform(-1.0, 1.0, shape)
    if complex_:
        m = m + 1j * rng.uniform(-1.0, 1.0, shape)
    return m


def isometry(n, k, rng, complex_=False):
    q, _ = np.linalg.qr(bounded((n, k), rng, complex_))
    return q


class TestWithin:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bound_is_inclusive_on_both_sides(self, dtype):
        for value in (BOUND, -BOUND):
            assert linalg._within(np.array([[value, 0.0]], dtype=dtype), BOUND)
            past = np.nextafter(value, np.copysign(np.inf, value))
            assert not linalg._within(np.array([[past, 0.0]], dtype=dtype), BOUND)

    @pytest.mark.parametrize(
        "entry", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)]
    )
    def test_nan_and_inf_fail(self, entry):
        m = np.zeros((3, 3), dtype=complex)
        m[1, 2] = entry
        assert not linalg._within(m, linalg._ENTRY_LIMIT)
        if np.imag(entry) == 0:
            assert not linalg._within(m.real, linalg._ENTRY_LIMIT)

    def test_imaginary_parts_count(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 2j
        assert not linalg._within(m, 1.5)
        assert linalg._within(m.real, 1.5)

    def test_strided_views_and_empty(self):
        m = np.zeros((4, 4), dtype=complex)
        m[3, 0] = -3.0
        assert not linalg._within(m.T, 2.0) and not linalg._within(m.T.real, 2.0)
        assert linalg._within(m[:, 1:], 2.0) and linalg._within(m.imag, 0.0)
        assert linalg._within(np.zeros((0, 3)), 0.0)


class TestIsometryDeviation:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 5), (16, 16), (6, 2), (33, 7)])
    def test_bitwise_the_inline_formula(self, shape, complex_):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        n, k = shape
        cases = [bounded(shape, rng, complex_), isometry(n, k, rng, complex_)]
        cases.append(cases[1] + 1e-11 * bounded(shape, rng, complex_))
        if n == k:
            cases.append(cases[1].T)  # an F-contiguous input
        for m in cases:
            dev = linalg._isometry_deviation(m)
            assert type(dev) is float
            assert dev == reference_deviation(m)

    def test_empty_set_of_columns_is_an_isometry(self):
        assert linalg._isometry_deviation(np.zeros((3, 0))) == 0.0

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("entry", [np.nextafter(BOUND, 2.0), -1.5, 1e308, np.inf, np.nan])
    def test_inf_past_the_bound(self, entry, complex_):
        m = np.eye(3, dtype=complex if complex_ else float)
        m[2, 0] = entry * (1j if complex_ else 1.0)
        with np.errstate(all="raise"):
            assert linalg._isometry_deviation(m) == np.inf

    def test_entries_at_the_bound_are_measured(self):
        m = np.diag([BOUND, 1.0])
        assert linalg._isometry_deviation(m) == reference_deviation(m) < 1e-9


# The same bad 2 x 2 matrices for every entry point.
BAD = {
    "huge": np.array([[1e308, 0.0], [0.0, 1.0]]),
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "shear": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "scaled": 2.0 * np.eye(2),
}


def _kraus(m):
    realops.RealKrausSet(2, 2, m[None])


def _dilation(m):
    realops.RealDilation(m, env_dim=1, pad_dim=0)


def _instance_unitary(m):
    gatesim.verify_instance(gatesim._catalytic(np.kron(m, np.eye(2)), gatesim.S, None))


def _instance_target(m):
    gatesim.verify_instance(gatesim._catalytic(gatesim._S_GADGET, m, None))


# entry point -> (call, {bad matrix -> its message})
ENTRY_POINTS = {
    "RealKrausSet": (
        _kraus,
        {
            "huge": "Kraus operators has an entry of size 1.000e+308, past 1e+100",
            "nan": "Kraus operators contains non-finite entries",
            "shear": "Kraus set is not trace preserving (deviation 5.000e-01)",
            "scaled": "Kraus set is not trace preserving (deviation inf)",
        },
    ),
    "RealDilation": (
        _dilation,
        {
            "huge": "unitary has an entry of size 1.000e+308, past 1e+100",
            "nan": "unitary contains non-finite entries",
            "shear": "unitary is not orthogonal (max deviation 5.000e-01)",
            "scaled": "unitary is not orthogonal (max deviation inf)",
        },
    ),
    "orthonormal_complete": (
        linalg.orthonormal_complete,
        {
            "huge": "columns has an entry of size 1.000e+308, past 1e+100",
            "nan": "columns contains non-finite entries",
            "shear": "input columns are not orthonormal (max deviation 5.000e-01)",
            "scaled": "input columns are not orthonormal (max deviation inf)",
        },
    ),
    "instance unitary": (
        _instance_unitary,
        {
            "huge": "instance unitary is not orthogonal",
            "nan": "instance unitary contains non-finite entries",
            "shear": "instance unitary is not orthogonal",
            "scaled": "instance unitary is not orthogonal",
        },
    ),
    "instance target": (
        _instance_target,
        {
            "huge": "target matrix is not unitary",
            "nan": "target matrix contains non-finite entries",
            "shear": "target matrix is not unitary",
            "scaled": "target matrix is not unitary",
        },
    ),
    "phase_rigidity": (gatesim.phase_rigidity, dict.fromkeys(BAD, "input matrix is not unitary")),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_bad_matrices_with_its_message(entry, bad):
    call, messages = ENTRY_POINTS[entry]
    gatesim._fixed_part.cache_clear()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(BAD[bad].copy())
    assert str(info.value) == messages[bad]


@pytest.mark.parametrize("bad", sorted(BAD))
def test_rigidity_command_exits_1_on_bad_matrices(bad, tmp_path, capsys):
    m = BAD[bad]
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"dim": 2, "re": m.tolist(), "im": np.zeros((2, 2)).tolist()}))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        code = cli.main(["rigidity", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == "error: input matrix is not unitary\n"


class TestRealDilation:
    """A dilation is square and orthogonal, or it is not constructed."""

    def test_shear_is_rejected(self):
        # Once accepted, and its channel then mapped |0><0| to |0><0| without an error.
        with pytest.raises(ValueError, match="unitary is not orthogonal"):
            realops.RealDilation(np.array([[1.0, 0.5], [0.0, 1.0]]), env_dim=1, pad_dim=0)

    def test_scaling_is_rejected(self):
        # Once accepted, and its channel failed only later, on the output's trace.
        with pytest.raises(ValueError, match="unitary is not orthogonal"):
            realops.RealDilation(np.diag([1.0, 2.0]), env_dim=1, pad_dim=0)

    def test_non_square_is_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            realops.RealDilation(np.eye(3)[:, :2], env_dim=1, pad_dim=0)

    @pytest.mark.parametrize("d", list(range(1, 10)) + [64, 256])
    def test_fixed_family_dilation_keeps_its_residual(self, d):
        dil = realops.dilate(realops.build_kraus(d))
        assert dil.orthogonality_residual == reference_deviation(dil.unitary)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dil.orthogonality_residual = 1.0

    def test_residual_is_measured_not_given(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.array([[c, -s], [s, c]])
        dil = realops.RealDilation(rotation, env_dim=1, pad_dim=0)
        assert dil.orthogonality_residual == reference_deviation(rotation)
        with pytest.raises(TypeError):
            realops.RealDilation(rotation, env_dim=1, pad_dim=0, orthogonality_residual=0.0)

    def test_convert_prints_the_measured_residual(self, tmp_path, capsys):
        rho = states.gen_random_density(5, 3)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(states.density_to_json(rho)))
        assert cli.main(["convert", str(path)]) == cli.EXIT_OK
        line = json.loads(capsys.readouterr().out)
        dil = realops.dilate(realops.build_kraus(5))
        assert line["dilation"]["orthogonality_residual"] == dil.orthogonality_residual
