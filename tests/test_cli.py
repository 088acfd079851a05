import json

import numpy as np
import pytest

from imaginarity import states
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


class TestMeasure:
    def test_reports_all_measures(self, capsys, plus_i_file):
        code, lines = run(capsys, "measure", plus_i_file)
        assert code == EXIT_OK
        rec = lines[0]
        assert abs(rec["imag_fidelity"] - 1.0) <= 1e-12
        assert abs(rec["robustness"] - 1.0) <= 1e-12


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

    def test_global_phase(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path / "p.json", np.exp(1j * np.pi / 4) * np.eye(2))
        code, lines = run(capsys, "rigidity", path)
        assert code == EXIT_OK
        assert abs(lines[0]["eta"] - np.pi / 2) <= 1e-12
