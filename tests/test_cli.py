import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from test_states import OVERFLOWING

import imaginarity
from imaginarity import cli, states
from imaginarity.cli import (
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_ZERO_RESOURCE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def write_state(path, rho):
    path.write_text(json.dumps(states.density_to_json(rho)))
    return str(path)


@pytest.fixture
def plus_i_file(tmp_path):
    return write_state(tmp_path / "plus_i.json", states.from_pure(states.plus_i()))


@pytest.fixture
def mixed_file(tmp_path):
    return write_state(tmp_path / "mixed.json", states.DensityMatrix(np.eye(2) / 2))


class TestClassify:
    def test_plus_i_is_universal(self, capsys, plus_i_file):
        code, lines = run(capsys, "classify", plus_i_file)
        assert code == EXIT_OK
        assert lines[0]["verdict"] == "universal"

    def test_maximally_mixed_is_zero(self, capsys, mixed_file):
        code, lines = run(capsys, "classify", mixed_file)
        assert code == EXIT_OK
        assert lines[0]["verdict"] == "zero"
        assert abs(lines[0]["overlap_conj"] - 0.5) <= 1e-12

    def test_batch_preserves_input_order(self, capsys, tmp_path):
        paths = [
            write_state(tmp_path / f"s{i}.json", states.gen_random_density(2 + i, i))
            for i in range(3)
        ]
        code, lines = run(capsys, "classify", *paths)
        assert code == EXIT_OK
        assert len(lines) == 3
        for i, line in enumerate(lines):
            from imaginarity import measures

            expected = measures.classify(states.gen_random_density(2 + i, i))
            assert line["overlap_conj"] == expected.overlap_conj

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["classify", str(bad)]) == EXIT_PARSE

    def test_missing_field_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "re": [[1, 0], [0, 0]]}))
        assert main(["classify", str(bad)]) == EXIT_PARSE

    def test_invariant_violation_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
        )
        assert main(["classify", str(bad)]) == EXIT_INVARIANT


MIXED_QUBIT = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
NAN_ENTRY = '{"dim": 1, "re": [[NaN]], "im": [[0]]}'
BLOCH = ["gen", "bloch", "0", "1", "0"]

#: case -> (argv, contents of the input file {file}, documented exit code);
#: {dir} is a scratch directory.
MALFORMED = {
    "state_not_utf8": (["classify", "{file}"], b"\xff\xfe{}", EXIT_PARSE),
    "unitary_not_utf8": (["rigidity", "{file}"], b"\xff\xfe{}", EXIT_PARSE),
    "state_too_deep": (["classify", "{file}"], "[" * 100000 + "]" * 100000, EXIT_PARSE),
    "unitary_too_deep": (["rigidity", "{file}"], "[" * 100000 + "]" * 100000, EXIT_PARSE),
    "dim_of_5000_digits": (["classify", "{file}"], '{"dim": ' + "9" * 5000 + "}", EXIT_PARSE),
    "missing_file": (["classify", "{dir}/missing.json"], None, EXIT_PARSE),
    "unitary_not_an_object": (["rigidity", "{file}"], [1, 2], EXIT_PARSE),
    **{
        f"{command}_dim_{name}": ([command, "{file}"], dict(MIXED_QUBIT, dim=dim), EXIT_PARSE)
        for command in ("classify", "rigidity")
        for name, dim in (("float", 2.7), ("bool", True), ("string", "2"))
    },
    "nan_in_state": (["classify", "{file}"], NAN_ENTRY, EXIT_INVARIANT),
    "out_is_a_directory": ([*BLOCH, "--out", "{dir}"], None, EXIT_PARSE),
    "out_in_a_missing_directory": ([*BLOCH, "--out", "{dir}/missing/x.json"], None, EXIT_PARSE),
    "refusal_out_is_a_directory": (
        ["simulate", "cs", "--resource", "{file}", "--out", "{dir}"],
        MIXED_QUBIT,
        EXIT_PARSE,
    ),
    **{
        f"classify_tolerance_{value}": (
            ["classify", "{file}", f"--tolerance={value}"],
            MIXED_QUBIT,
            EXIT_PARSE,
        )
        for value in ("nan", "inf", "-inf", "-1", "-0.5e-9", "abc")
    },
    "rigidity_tolerance_nan": (
        ["rigidity", "{file}", "--tolerance", "nan"],
        {"dim": 1, "re": [[1.0]], "im": [[0.0]]},
        EXIT_PARSE,
    ),
    "simulate_tolerance_inf": (
        ["simulate", "s", "--resource", "{file}", "--tolerance", "inf"],
        MIXED_QUBIT,
        EXIT_PARSE,
    ),
    "bloch_not_a_number": (["gen", "bloch", "0", "x", "0"], None, EXIT_PARSE),
    "gen_random_with_coordinates": (["gen", "random", "0.5", "7", "--dim", "2"], None, EXIT_PARSE),
    "gen_bloch_with_flags": (
        [*BLOCH, "--dim", "7", "--rank", "3", "--seed", "4"],
        None,
        EXIT_PARSE,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_gets_its_documented_exit_code(capsys, tmp_path, case):
    template, contents, expected = MALFORMED[case]
    path = tmp_path / "in.json"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif contents is not None:
        path.write_text(contents if isinstance(contents, str) else json.dumps(contents))
    argv = [arg.format(file=path, dir=tmp_path) for arg in template]
    try:
        code = main(argv)
        prefix = "error: "
    except SystemExit as exc:  # an argparse usage error; any other exception fails
        code = exc.code
        prefix = "usage:"
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    if "--out" in argv and prefix == "error: ":
        assert captured.err.startswith(f"error: {argv[argv.index('--out') + 1]}: ")


def test_tolerance_zero_is_valid(capsys, plus_i_file, tmp_path):
    code, lines = run(capsys, "classify", plus_i_file, "--tolerance", "0")
    assert code == EXIT_OK
    assert lines[0]["tolerance"] == 0.0
    identity = tmp_path / "id.json"
    identity.write_text(json.dumps({"dim": 1, "re": [[1.0]], "im": [[0.0]]}))
    code, lines = run(capsys, "rigidity", str(identity), "--tolerance", "0")
    assert code == EXIT_OK
    assert lines[0]["is_phase_multiple_of_identity"]


def test_a_non_finite_result_is_an_internal_error_not_invalid_json(capsys, monkeypatch, plus_i_file):
    # JSON has no NaN (RFC 8259), so a line holding one is never printed.
    monkeypatch.setattr(cli, "_cmd_measure", lambda args: [{"robustness": float("nan")}])
    assert main(["measure", plus_i_file]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestMeasure:
    def test_reports_all_measures(self, capsys, plus_i_file):
        code, lines = run(capsys, "measure", plus_i_file)
        assert code == EXIT_OK
        rec = lines[0]
        assert abs(rec["imag_fidelity"] - 1.0) <= 1e-12
        assert abs(rec["robustness"] - 1.0) <= 1e-12


def test_cli_imports_only_numpy_and_the_standard_library():
    # Every cold CLI process pays for what `imaginarity.cli` imports, and
    # pyproject.toml promises numpy only.  Modules a bare interpreter
    # already holds (site hooks, for instance) are not the package's.
    code = (
        "import sys; before = set(sys.modules); import imaginarity.cli; "
        "print('\\n'.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = os.path.dirname(os.path.dirname(imaginarity.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert {"imaginarity", "numpy"} <= loaded
    assert sorted(loaded - {"imaginarity", "numpy"} - set(sys.stdlib_module_names)) == []


def test_commands_take_only_the_flags_they_read(capsys, plus_i_file):
    # A flag a command would ignore is a usage error, not a silent no-op.
    unread = [
        ["measure", plus_i_file, "--tolerance", "5"],
        ["measure", plus_i_file, "--seed", "1"],
        ["convert", plus_i_file, "--tolerance", "5"],
        ["convert", plus_i_file, "--seed", "1"],
        ["gen", "random", "--tolerance", "5"],
        ["classify", plus_i_file, "--seed", "1"],
        ["rigidity", plus_i_file, "--seed", "1"],
        ["simulate", "s", "--seed", "1"],
    ]
    for argv in unread:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE, argv
    assert capsys.readouterr().out == ""
    read = [
        ["classify", plus_i_file, "--tolerance", "1e-6"],
        ["simulate", "s", "--resource", plus_i_file, "--tolerance", "1e-6"],
        ["gen", "random", "--seed", "1"],
    ]
    for argv in read:
        assert main(argv) == EXIT_OK, argv


class TestConvert:
    def test_plus_i_fidelity_one(self, capsys, plus_i_file):
        code, lines = run(capsys, "convert", plus_i_file)
        assert code == EXIT_OK
        assert abs(lines[0]["fidelity"] - 1.0) <= 1e-12
        assert lines[0]["dilation"]["orthogonality_residual"] <= 1e-12

    def test_real_state_fidelity_half(self, capsys, tmp_path):
        path = write_state(tmp_path / "zero.json", states.DensityMatrix(np.diag([1.0, 0.0])))
        code, lines = run(capsys, "convert", path)
        assert code == EXIT_OK
        assert abs(lines[0]["fidelity"] - 0.5) <= 1e-12

    def test_generated_max_imaginary_fidelity_one(self, capsys, tmp_path):
        path = write_state(tmp_path / "mi.json", states.gen_max_imaginary(4, 2, 7))
        code, lines = run(capsys, "convert", path)
        assert code == EXIT_OK
        assert abs(lines[0]["fidelity"] - 1.0) <= 1e-10


    def test_one_dimensional_state_converts_at_fidelity_half(self, capsys, tmp_path):
        # [[1]] has no imaginarity: the odd remainder alone maps it to |0><0|.
        path = write_state(tmp_path / "one.json", states.DensityMatrix(np.ones((1, 1))))
        code, lines = run(capsys, "convert", path)
        assert code == EXIT_OK
        assert lines[0]["fidelity"] == 0.5
        assert lines[0]["output"] == {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2}
        assert lines[0]["kraus"]["operators"] == [[[1.0], [0.0]]]
        assert lines[0]["dilation"] == {"env_dim": 1, "pad_dim": 1, "orthogonality_residual": 0.0}


class TestSimulate:
    def test_s_gadget(self, capsys):
        code, lines = run(capsys, "simulate", "s")
        assert code == EXIT_OK
        assert lines[0]["verification"]["holds"]
        assert lines[0]["verification"]["residual_uniform"]
        residual = states.density_from_json(lines[0]["residual"])
        np.testing.assert_allclose(
            residual.matrix, states.from_pure(states.plus_i()).matrix, atol=1e-12
        )

    def test_cs_gadget(self, capsys):
        code, lines = run(capsys, "simulate", "cs")
        assert code == EXIT_OK
        assert lines[0]["verification"]["holds"]

    def test_zero_resource_refused_with_exit_4(self, capsys, mixed_file):
        code, lines = run(capsys, "simulate", "s", "--resource", mixed_file)
        assert code == EXIT_ZERO_RESOURCE
        assert abs(lines[0]["best_fidelity"] - 0.5) <= 1e-12

    def test_universal_resource_accepted(self, capsys, tmp_path):
        path = write_state(tmp_path / "mi.json", states.gen_max_imaginary(6, 2, 5))
        code, lines = run(capsys, "simulate", "s", "--resource", path)
        assert code == EXIT_OK
        assert lines[0]["verification"]["holds"]


class TestGen:
    def test_bloch_writes_plus_i(self, capsys):
        code, lines = run(capsys, "gen", "bloch", "0", "1", "0")
        assert code == EXIT_OK
        rho = states.density_from_json(lines[0])
        np.testing.assert_allclose(rho.matrix, states.from_pure(states.plus_i()).matrix)

    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert (
                main(["gen", "max-imaginary", "--dim", "6", "--rank", "2", "--seed", "3", "--out", str(path)])
                == EXIT_OK
            )
        assert a.read_bytes() == b.read_bytes()

    def test_random_output_is_valid_state(self, capsys):
        code, lines = run(capsys, "gen", "random", "--dim", "4", "--seed", "1")
        assert code == EXIT_OK
        states.density_from_json(lines[0])  # validates invariants

    def test_bad_bloch_params_exit_2(self, capsys):
        assert main(["gen", "bloch", "0", "1"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random", "--dim", "0"],
            ["gen", "max-imaginary", "--dim", "4", "--rank", "3"],
            ["gen", "max-imaginary", "--dim", "1"],
        ],
    )
    def test_out_of_range_arguments_exit_2(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must" in captured.err


    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random", "--rank", "1"],
            ["gen", "random", "0", "1", "0"],
            ["gen", "max-imaginary", "0", "1", "0", "--dim", "4"],
            ["gen", "bloch", "0", "1", "0", "--seed", "0"],
        ],
    )
    def test_arguments_the_kind_does_not_read_exit_2(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: gen {argv[1]} does not take ")

    def test_absent_flags_keep_their_defaults(self, capsys):
        assert run(capsys, "gen", "random") == run(
            capsys, "gen", "random", "--dim", "2", "--seed", "0"
        )
        assert run(capsys, "gen", "max-imaginary") == run(
            capsys, "gen", "max-imaginary", "--dim", "2", "--rank", "1", "--seed", "0"
        )


class TestRigidity:
    @staticmethod
    def write_matrix(path, m):
        path.write_text(
            json.dumps({"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()})
        )
        return str(path)

    def test_hadamard(self, capsys, tmp_path):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        path = self.write_matrix(tmp_path / "h.json", h.astype(complex))
        code, lines = run(capsys, "rigidity", path)
        assert code == EXIT_OK
        assert lines[0]["is_phase_multiple_of_identity"]
        assert abs(lines[0]["eta"]) <= 1e-12

    def test_s_gate_not_rigid(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path / "s.json", np.diag([1, 1j]).astype(complex))
        code, lines = run(capsys, "rigidity", path)
        assert code == EXIT_OK
        assert not lines[0]["is_phase_multiple_of_identity"]

    def test_nan_entry_is_not_unitary_exit_1(self, capsys, tmp_path):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        h[0, 1] = np.nan
        path = self.write_matrix(tmp_path / "nan.json", h.astype(complex))
        assert main(["rigidity", path]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("entry", [1e308, -1e308, 1e308j, 1e200 + 1e200j])
    def test_overflowing_entry_is_not_unitary_exit_1(self, capsys, tmp_path, entry):
        # Once printed numpy's matmul overflow warnings before the error.
        m = np.eye(2, dtype=complex)
        m[0, 0] = entry
        path = self.write_matrix(tmp_path / "big.json", m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rigidity", path])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err == "error: input matrix is not unitary\n"

    def test_global_phase(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path / "p.json", np.exp(1j * np.pi / 4) * np.eye(2))
        code, lines = run(capsys, "rigidity", path)
        assert code == EXIT_OK
        assert abs(lines[0]["eta"] - np.pi / 2) <= 1e-12


@pytest.mark.parametrize("name", ["2x2", "5x5", "float range"])
@pytest.mark.parametrize(
    "argv",
    [["classify"], ["measure"], ["convert"], ["simulate", "s", "--resource"]],
    ids=["classify", "measure", "convert", "simulate"],
)
def test_overflowing_state_is_an_invariant_violation(capsys, tmp_path, name, argv):
    # These once passed validation: classify, measure and simulate then
    # exited 1 on an overflow warning (or reported overlap_conj = inf).
    m = OVERFLOWING[name]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": len(m), "re": m.real.tolist(), "im": m.imag.tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert captured.out == ""
    assert captured.err.startswith("error: invalid state: not positive semidefinite")
