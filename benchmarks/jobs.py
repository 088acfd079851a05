"""The three workloads: their jobs, the closed loop that runs them, and the
checks that decide whether a job failed.

A job is a `work` callable, which is the only part that is timed, and a
`check` that inspects what `work` returned and names the first failure, or
returns None.  The package is always reached through module attributes at
call time, so the wrappers of `spans.instrument` see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

from imaginarity import cli, gatesim, measures, realops, states

import inputs
import spans

#: Absolute tolerance of the closed-form checks; all checked values are O(1).
CHECK_TOL = 1e-8
#: Kraus path vs. dilation path, entrywise.
PATH_TOL = 1e-10
#: Verification tolerance the CLI's `simulate` uses.
VERIFY_TOL = 1e-10
#: A cold CLI process that runs longer than this is killed and counted failed.
CLI_TIMEOUT_S = 60

#: The job's answers are right, but a universal verdict did not lead to a
#: verified gadget.  Counted as a failed job; not a wrong value.
UNVERIFIED = "universal_unverified"


class Workload:
    """A fixed round of jobs repeated in a closed loop."""

    round_len = 0
    warm_up_jobs = 0

    def job(self, n: int):
        raise NotImplementedError

    def close(self) -> None:
        pass


def run_job(work, check, rec=None):
    """Run one job; return (latency in seconds, failure or None)."""
    if rec is not None:
        rec.job += 1
        index = rec.open(spans.JOB)
    t0 = time.perf_counter()
    try:
        result = work()
    except Exception as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - t0, f"raised:{type(exc).__name__}"
    finally:
        if rec is not None:
            rec.close(index)
    latency = time.perf_counter() - t0
    try:
        return latency, check(result)
    except Exception as exc:  # malformed output the check could not read
        return latency, f"unreadable:{type(exc).__name__}"


class Reference:
    """A fixed unit of numpy and interpreter work that never touches the package.

    The host this runs on slows down by up to about 1.7x for spells of
    seconds, caused by work outside the benchmark.  The reference unit's
    time, taken between jobs, slows down with it, so a job's latency divided
    by the reference time next to it cancels those spells.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.big = a + a.conj().T
        self.small = self.big[:8, :8].copy()
        self.pair = self.big[:2, :2].copy()

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(60):
            k = np.kron(self.small[:4, :4], self.pair)
            np.linalg.eigh(self.small)
            float(np.max(np.abs(k @ k.conj().T)))
        np.linalg.eigh(self.big)
        sum(i * i for i in range(20000))
        return time.perf_counter() - t0


#: Job time after which the reference unit runs again.
REFERENCE_EVERY_S = 0.25


def traced_round(n: int, round_len: int) -> bool:
    """Whether job `n` of a traced run falls in a traced round."""
    return (n // round_len) % 2 == 1


def run_rounds(workload: Workload, seconds: float, rec=None):
    """Whole rounds, one job after another, until `seconds` have passed.

    Returns the (latency, failure) outcomes and, for each job, the mean of
    the reference times taken just before and just after its block of jobs.

    With a recorder, rounds alternate between untraced and traced ones (run
    under `spans.instrument(rec)`), starting untraced, and the loop ends only
    after an even number of rounds; so every job of the round runs traced as
    often as untraced, and `traced_round` tells which runs were traced.
    """
    reference = Reference()
    outcomes, refs = [], []
    before = reference.run()
    block, busy = 0, 0.0

    def close_block():
        nonlocal before, block, busy
        after = reference.run()
        refs.extend([(before + after) / 2] * block)
        before, block, busy = after, 0, 0.0

    start = time.perf_counter()
    rounds = 0
    while True:
        tracer = rec if rec is not None and rounds % 2 == 1 else None
        with spans.instrument(tracer) if tracer is not None else nullcontext():
            for _ in range(workload.round_len):
                outcomes.append(run_job(*workload.job(len(outcomes)), tracer))
                block += 1
                busy += outcomes[-1][0]
                if busy >= REFERENCE_EVERY_S:
                    close_block()
        rounds += 1
        if time.perf_counter() - start >= seconds and (rec is None or rounds % 2 == 0):
            break
    if block:
        close_block()
    return outcomes, refs


def warm_up(workload: Workload) -> None:
    for n in range(workload.warm_up_jobs):
        run_job(*workload.job(n))


# --- checks ------------------------------------------------------------------


def _close(a: float, b: float, tol: float = CHECK_TOL) -> bool:
    return abs(a - b) <= tol


def check_pipeline(inp: inputs.StateInput, res) -> str | None:
    """theorem1_pipeline against the input's expected verdict and closed form."""
    if res.report.verdict != inp.verdict:
        return "verdict"
    fidelity = 0.5 + inp.trace_norm / 4.0
    if not _close(res.report.imag_trace_norm, inp.trace_norm) or not _close(
        res.best_fidelity, fidelity
    ):
        return "fidelity"
    universal = res.report.verdict == inputs.UNIVERSAL
    if universal != (res.conversion is not None):
        return "verdict"
    if universal and not _close(res.conversion.fidelity, fidelity):
        return "fidelity"
    if universal and res.gadget_verified is not True:
        return UNVERIFIED
    return None


def check_channel(inp: inputs.StateInput, result) -> str | None:
    res, conversion, via_dilation = result
    if not _close(conversion.fidelity, 0.5 + inp.trace_norm / 4.0):
        return "fidelity"
    if np.max(np.abs(via_dilation.matrix - conversion.output.matrix)) > PATH_TOL:
        return "kraus_vs_dilation"
    return check_pipeline(inp, res)


def check_gadget(result) -> str | None:
    report, conversion, verification, hs = result
    if report is not None and report.verdict != inputs.UNIVERSAL:
        return "verdict"
    if conversion is not None and not _close(conversion.fidelity, 1.0):
        return "fidelity"
    if not (verification.holds and verification.residual_uniform()):
        return "gadget"
    if hs["max_deviation"] > VERIFY_TOL:
        return "gadget"
    return None


# --- survey_small ------------------------------------------------------------


class Survey(Workload):
    """theorem1_pipeline at d in {2, 4, 8, 16}, plus `simulate`-style gadget jobs."""

    def __init__(self, seed: int):
        self.inputs = inputs.survey_inputs(seed)
        self.round_len = len(inputs.survey_round())
        self.warm_up_jobs = self.round_len

    def job(self, n: int):
        inp = self.inputs[n % len(self.inputs)]
        if isinstance(inp, inputs.StateInput):

            def work():
                return gatesim.theorem1_pipeline(states.DensityMatrix(inp.raw))

            return work, lambda res: check_pipeline(inp, res)

        if inp.gadget == "real_target":

            def work():
                rho = states.DensityMatrix(inp.resource.raw)
                inst = gatesim.real_target_instance(
                    rho, inp.data_orthogonal, inp.resource_orthogonal
                )
                verification = gatesim.verify_instance(inst, tolerance=VERIFY_TOL)
                return None, None, verification, gatesim.hs_consistency(inst)

            return work, check_gadget

        builder = {"s": gatesim.s_gadget, "cs": gatesim.cs_gadget}[inp.gadget]
        resource_json = inp.resource_json

        def work():
            rho = states.density_from_json(resource_json)
            report = measures.classify(rho)
            conversion = realops.convert_to_plus_hat(rho)
            inst = builder(resource=conversion.output)
            verification = gatesim.verify_instance(inst, tolerance=VERIFY_TOL)
            return report, conversion, verification, gatesim.hs_consistency(inst)

        return work, check_gadget


# --- channel_large -----------------------------------------------------------


class Channel(Workload):
    """Validate, classify, convert and dilate at d in {256, 512}."""

    round_len = len(inputs.CHANNEL_ROUND)
    warm_up_jobs = 2  # the first two slots: one universal and one zero job at d = 256

    def __init__(self, seed: int):
        self.inputs = inputs.channel_inputs(seed)

    def job(self, n: int):
        inp = self.inputs[n % len(self.inputs)]

        def work():
            rho = states.DensityMatrix(inp.raw)
            res = gatesim.theorem1_pipeline(rho)
            # zero verdicts are converted anyway, as `imaginarity convert` does
            conversion = res.conversion or realops.convert_to_plus_hat(rho)
            dilation = realops.dilate(conversion.kraus)
            return res, conversion, realops.apply_dilation(dilation, conversion.align, rho)

        return work, lambda result: check_channel(inp, result)


# --- cli_cold ----------------------------------------------------------------

REPORT_KEYS = {"overlap_conj", "imag_trace_norm", "imag_fidelity", "robustness", "verdict", "tolerance"}
MEASURE_KEYS = {"overlap_conj", "imag_trace_norm", "imag_fidelity", "robustness"}
STATE_KEYS = {"dim", "re", "im"}
RIGIDITY_KEYS = {
    "gram_re",
    "gram_im",
    "is_phase_multiple_of_identity",
    "eta",
    "realified_is_real",
    "realified_re",
    "realified_im",
}

#: name -> (expected exit code, key set of each output line)
CLI_EXPECT = {
    "gen_bloch": (0, [STATE_KEYS]),
    "gen_random": (0, [STATE_KEYS]),
    "gen_max_imaginary": (0, [STATE_KEYS]),
    "classify": (0, [REPORT_KEYS, REPORT_KEYS]),
    "measure": (0, [MEASURE_KEYS]),
    "convert": (0, [{"fidelity", "output", "kraus", "dilation"}]),
    "simulate_s": (0, [{"gadget", "verification", "residual", "hs_consistency"}]),
    "simulate_cs": (4, [{"error", "report", "best_fidelity"}]),
    "rigidity": (0, [RIGIDITY_KEYS]),
}


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def check_cli(name: str, code: int, lines: list, data: inputs.CliInputs) -> str | None:
    """Exit code, report key sets and the values each command must print."""
    expected_code, key_sets = CLI_EXPECT[name]
    if code != expected_code:
        return "cli_exit"
    if [set(line) for line in lines] != key_sets:
        return "cli_keys"
    line = lines[0]
    fidelity = {
        "universal": 0.5 + data.universal.trace_norm / 4.0,
        "zero": 0.5 + data.zero.trace_norm / 4.0,
    }
    if name == "gen_bloch":  # |+i><+i|
        ok = line["dim"] == 2 and np.allclose(_matrix(line), [[0.5, -0.5j], [0.5j, 0.5]], atol=CHECK_TOL)
    elif name.startswith("gen_"):
        m = _matrix(line)
        ok = line["dim"] == inputs.CLI_DIM and _close(np.trace(m).real, 1.0)
        if name == "gen_max_imaginary":
            ok = ok and _close(np.trace(m @ m.conj()).real, 0.0)
    elif name == "classify":
        ok = [ln["verdict"] for ln in lines] == [inputs.UNIVERSAL, inputs.ZERO] and all(
            _close(ln["imag_fidelity"], f)
            for ln, f in zip(lines, (fidelity["universal"], fidelity["zero"]))
        )
    elif name == "measure":
        ok = _close(line["imag_fidelity"], fidelity["zero"]) and _close(
            line["imag_trace_norm"], data.zero.trace_norm
        )
    elif name == "convert":
        ok = _close(line["fidelity"], fidelity["universal"]) and (
            line["dilation"]["orthogonality_residual"] <= PATH_TOL
        )
    elif name == "simulate_s":
        ok = line["verification"]["holds"] is True and line["verification"]["residual_uniform"]
    elif name == "simulate_cs":
        ok = line["report"]["verdict"] == inputs.ZERO and _close(
            line["best_fidelity"], fidelity["zero"]
        )
    else:  # rigidity: V = e^{i eta} O has V^T V = e^{2 i eta} I
        ok = (
            line["is_phase_multiple_of_identity"] is True
            and _close(line["eta"], 2.0 * data.eta)
            and line["realified_is_real"] is True
        )
    return None if ok else "cli_value"


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


class Cli(Workload):
    """A fixed rotation of `imaginarity` commands.

    `cold=True` runs each job as a fresh `python -m imaginarity.cli`
    process; `cold=False` runs the same rotation in-process through
    `cli.main(argv)`, which is what the traced run uses.
    """

    def __init__(self, seed: int, root: str, workdir: str, cold: bool = True):
        self.data = inputs.cli_inputs(seed)
        self.cold = cold
        self.root = root
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        d = self.data
        uni = _write_json(os.path.join(workdir, "universal.json"), inputs.density_json(d.universal.raw))
        zero = _write_json(os.path.join(workdir, "zero.json"), inputs.density_json(d.zero.raw))
        unitary = _write_json(
            os.path.join(workdir, "unitary.json"),
            {"dim": inputs.RIGIDITY_DIM, "re": d.unitary.real.tolist(), "im": d.unitary.imag.tolist()},
        )
        dim = str(inputs.CLI_DIM)
        self.rotation = [
            ("gen_bloch", lambda s: ["gen", "bloch", "0", "1", "0"]),
            ("gen_random", lambda s: ["gen", "random", "--dim", dim, "--seed", s]),
            (
                "gen_max_imaginary",
                lambda s: ["gen", "max-imaginary", "--dim", dim, "--rank", str(inputs.CLI_RANK), "--seed", s],
            ),
            ("classify", lambda s: ["classify", uni, zero]),
            ("measure", lambda s: ["measure", zero]),
            ("convert", lambda s: ["convert", uni]),
            ("simulate_s", lambda s: ["simulate", "s", "--resource", uni]),
            ("simulate_cs", lambda s: ["simulate", "cs", "--resource", zero]),
            ("rigidity", lambda s: ["rigidity", unitary]),
        ]
        self.round_len = len(self.rotation)
        # cold: one process pages the interpreter, numpy and the package in;
        # in-process: one rotation loads and warms every command
        self.warm_up_jobs = 1 if cold else self.round_len
        self.out = os.path.join(workdir, "out.jsonl")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def job(self, n: int):
        name, argv_of = self.rotation[n % self.round_len]
        seed = str(self.data.gen_seeds[(n // self.round_len) % len(self.data.gen_seeds)])
        argv = argv_of(seed) + ["--out", self.out]
        if os.path.exists(self.out):
            os.remove(self.out)

        if self.cold:

            def work():
                return subprocess.run(
                    [sys.executable, "-m", "imaginarity.cli", *argv],
                    cwd=self.root,
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    timeout=CLI_TIMEOUT_S,
                ).returncode

        else:

            def work():
                return cli.main(argv)

        def check(code):
            lines = []
            if os.path.exists(self.out):
                with open(self.out) as fh:
                    lines = [json.loads(ln) for ln in fh if ln.strip()]
            return check_cli(name, code, lines, self.data)

        return work, check

    def close(self) -> None:
        for entry in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, entry))
        os.rmdir(self.workdir)
