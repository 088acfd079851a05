"""The tolerance policy lives in one table, `linalg`'s three *_TOL names.

Every module of the package is parsed, so a threshold written as a new
constant or an inline literal anywhere else fails here.
"""

import ast
from pathlib import Path

import imaginarity

PACKAGE = Path(imaginarity.__file__).parent
TABLE = {"VERDICT_TOL", "CHECK_TOL", "EXACT_TOL"}


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_tolerances_live_in_one_table():
    found = set()
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        table_values = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            for name in _assigned_names(node):
                if not name.endswith("_TOL"):
                    continue
                if path.stem == "linalg" and name in TABLE and isinstance(node, ast.Assign):
                    found.add(name)
                    table_values.add(id(node.value))
                else:
                    offences.append(f"{path.name}:{node.lineno} assigns {name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < node.value < 1e-6
                and id(node) not in table_values
            ):
                offences.append(f"{path.name}:{node.lineno} literal {node.value!r}")
    assert offences == []
    assert found == TABLE
