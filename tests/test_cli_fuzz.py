"""Fuzzed CLI contract: every command exits with a documented code.

Seeded hypothesis tests drive `cli.main` in-process with `{dim, re, im}`
files whose entries come from 0, -0, 5e-324, 1e-154, 1e-9, 1e154, +-1e308,
NaN and Gaussians at d = 1..5, some of them valid states or unitaries with
entries replaced, and with `gen` argument lists.  For each run:

* the exit code is one the README documents for that command;
* stdout is strict JSON lines (no NaN or infinity), and empty unless the
  exit is 0 or 4;
* on any other exit, stderr starts with `error: `, or `usage:` for an
  argparse usage error; on exit 0 and 4 it is empty;
* no warning escapes: every warning is an error here.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from imaginarity import cli, states
from imaginarity.cli import EXIT_INTERNAL, EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_ZERO_RESOURCE

SPECIAL = [0.0, -0.0, 5e-324, 1e-154, 1e-9, 1e154, 1e308, -1e308, float("nan")]
ENTRIES = st.sampled_from(SPECIAL) | st.floats(-3.0, 3.0)
DIMS = st.integers(min_value=1, max_value=5)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: The exit codes each command documents (README, "Exit codes").
STATE_CODES = {EXIT_OK, EXIT_PARSE, EXIT_INVARIANT}
COMMANDS = {
    "classify": (["classify"], STATE_CODES),
    "measure": (["measure"], STATE_CODES),
    "convert": (["convert"], STATE_CODES),
    "simulate s": (["simulate", "s", "--resource"], STATE_CODES | {EXIT_ZERO_RESOURCE}),
    "simulate cs": (["simulate", "cs", "--resource"], STATE_CODES | {EXIT_ZERO_RESOURCE}),
    "rigidity": (["rigidity"], {EXIT_OK, EXIT_INTERNAL, EXIT_PARSE}),
}
GEN_CODES = {EXIT_OK, EXIT_PARSE, EXIT_INVARIANT}


def _no_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run(argv):
    """(exit code, stdout, stderr, usage error?) of cli.main(argv); every warning is an error."""
    out, err, usage = io.StringIO(), io.StringIO(), False
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code, usage = exc.code, True
    return code, out.getvalue(), err.getvalue(), usage


def check_contract(code, out, err, usage, allowed):
    assert code in allowed, (code, out, err)
    for line in out.splitlines():
        json.loads(line, parse_constant=_no_constant)
    if code in (EXIT_OK, EXIT_ZERO_RESOURCE):
        assert out and not err, (code, out, err)
    else:
        assert not out, (code, out, err)
        assert err.startswith("usage:" if usage else "error: "), err


def _spoil(m, draw):
    """m with up to two entries replaced by drawn reals, in its real or imaginary part."""
    m = np.array(m, dtype=complex)
    n = m.shape[0]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        value = draw(ENTRIES)
        re, im = m[i, j].real, m[i, j].imag
        m[i, j] = complex(value, im) if draw(st.booleans()) else complex(re, value)
    return m


@st.composite
def matrix_files(draw):
    """The JSON object of a `{dim, re, im}` file."""
    d = draw(DIMS)
    kind = draw(st.sampled_from(["entries", "hermitian", "state", "unitary", "format"]))
    if kind == "entries":
        grid = [[complex(draw(ENTRIES), draw(ENTRIES)) for _ in range(d)] for _ in range(d)]
        m = np.array(grid)
    elif kind == "hermitian":
        m = np.zeros((d, d), dtype=complex)
        for i in range(d):
            m[i, i] = draw(ENTRIES)
            for j in range(i):
                m[i, j] = complex(draw(ENTRIES), draw(ENTRIES))
                m[j, i] = np.conj(m[i, j])
    elif kind == "state":
        s = draw(SEEDS)
        if d >= 2 and draw(st.booleans()):
            rho = states.gen_max_imaginary(d, draw(st.integers(1, d // 2)), s)
        else:
            rho = states.gen_random_density(d, s)
        m = _spoil(rho.matrix, draw)
    elif kind == "unitary":
        rng = np.random.default_rng(draw(SEEDS))
        g = rng.standard_normal((d, d))
        if draw(st.booleans()):
            g = g + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(g)
        m = _spoil(np.exp(1j * rng.uniform(-np.pi, np.pi)) * q, draw)
    else:  # the file format itself is broken
        m = np.eye(d) / d
        obj = {"dim": d, "re": m.tolist(), "im": np.zeros((d, d)).tolist()}
        how = draw(st.sampled_from(["dim", "float dim", "bool dim", "ragged", "missing", "string"]))
        if how == "dim":
            obj["dim"] = d + draw(st.sampled_from([-d, -1, 1]))
        elif how == "float dim":
            obj["dim"] = float(d)
        elif how == "bool dim":
            obj["dim"] = True
        elif how == "ragged":
            obj["re"][0] = obj["re"][0][:-1] + [[0.0]]
        elif how == "missing":
            del obj["im"]
        else:
            obj["re"][0][0] = "0.5"
        return obj
    return {"dim": d, "re": m.real.tolist(), "im": m.imag.tolist()}


@seed(2727)
@settings(max_examples=250, deadline=None)
@given(matrix_files())
def test_file_commands_keep_the_contract(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)  # NaN is written as the literal NaN, which json.load reads
        for prefix, allowed in COMMANDS.values():
            check_contract(*run(prefix + [path]), allowed)


GEN_DIMS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "2.5", "x"])
GEN_RANKS = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
GEN_SEEDS = st.sampled_from(["-1", "0", "7", str(2**31), str(2**64), "1e3", "s"])
COORDINATES = st.sampled_from(
    ["0", "-0", "1", "-1", "0.5", "1e-9", "1e154", "1e308", "-1e308", "nan", "inf", "x"]
)


#: The flags each `gen` kind reads (README, the `gen` rows of the argument table).
GEN_READS = {
    "random": ["--dim", "--seed"],
    "max-imaginary": ["--dim", "--rank", "--seed"],
    "bloch": [],
}
GEN_VALUES = {"--dim": GEN_DIMS, "--rank": GEN_RANKS, "--seed": GEN_SEEDS}


@st.composite
def gen_argvs(draw):
    """A `gen` argument list: mostly the arguments its kind reads, sometimes others."""
    kind = draw(st.sampled_from(sorted(GEN_READS)))
    argv = ["gen", kind]
    if kind == "bloch" or draw(st.integers(0, 9)) == 0:
        count = 3 if draw(st.integers(0, 4)) else draw(st.integers(0, 4))
        argv += [draw(COORDINATES) for _ in range(count)]
    foreign = draw(st.integers(0, 9)) == 0
    for flag in sorted(GEN_VALUES) if foreign else GEN_READS[kind]:
        if draw(st.booleans()):
            argv += [flag, draw(GEN_VALUES[flag])]
    return argv


@seed(2728)
@settings(max_examples=200, deadline=None)
@given(gen_argvs())
def test_gen_keeps_the_contract(argv):
    check_contract(*run(argv), GEN_CODES)
