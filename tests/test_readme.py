"""The README's CLI examples run as written.

Every `imaginarity ...` line of the README's CLI code block goes through
`cli.main` in a scratch directory, in order, and must exit 0; so a change
to a command or flag that the README still shows fails here.
"""

import json
import pathlib
import re
import shlex

from imaginarity import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    block = next(b for b in blocks if "\nimaginarity " in "\n" + b)
    lines = [line for line in block.splitlines() if line.startswith("imaginarity ")]
    return [shlex.split(line, comments=True) for line in lines]


def test_readme_cli_block_runs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    pauli_x = {"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    (tmp_path / "unitary.json").write_text(json.dumps(pauli_x))
    examples = cli_examples()
    assert len(examples) >= 9
    for argv in examples:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
