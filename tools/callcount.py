#!/usr/bin/env python3
"""Count the C-level calls per stage of a survey_small job, and time the stages.

Run from the root of a checkout:

    python3 tools/callcount.py --rounds 1

Runs survey_small's jobs as the benchmark runs them (the inputs of
benchmarks/inputs.py through the `work` of benchmarks/jobs.py), after one
warm-up round, under `sys.setprofile`.  A C-level call is what the
profiler reports as `c_call`: a builtin function or method.  Those of
numpy (ndarray methods, `np.asarray`, `np.linalg`'s helpers) cost about a
microsecond each at small d and are counted apart from the rest (`abs`,
`len`, `list.append`, `math.sqrt`), which cost tens of nanoseconds.
Ufunc calls and operators (`@`, `+`, `*`, `np.abs`, `np.add`) raise no
event and are not counted, so a count can move against the cost: a
stage that trades `a.reshape(...)` for `a @ b` counts fewer calls at the
same price.  Each call is charged to the innermost stage running: the
traced functions of benchmarks/spans.py, under their span names, and a
few internal helpers; calls outside every stage go to `job`.  The counts
are per job, averaged over the rounds, and do not depend on the host, so
they show per-call overhead that timings at small d hide in noise.

So each stage's cost is also timed, in a second pass over the same jobs
without the profiler: every stage is wrapped as benchmarks/spans.py
wraps its traced functions, and a stage's self time (its time less that
of the stages it calls) is averaged per job.  The wrappers add about a
microsecond per call, most of it to the caller's self time; one round is
noisy, so compare stages with more rounds, on one host.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections import Counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import jobs  # noqa: E402
import spans  # noqa: E402

#: Internal helpers counted as stages of their own, next to spans.TRACED.
HELPERS = (
    ("linalg", "_within", "linalg._within"),
    ("linalg", "_symmetric_part", "linalg._symmetric_part"),
    ("linalg", "_canonical_form", "linalg._canonical_form"),
    ("linalg", "_cuts", "linalg._cuts"),
    ("realops", "_compress", "realops._compress"),
    ("gatesim", "_probe_deviations", "gatesim._probe_deviations"),
    ("states", "_validate", "states._validate"),
    ("states", "_scalar_accepts", "states._scalar_accepts"),
)


def _stages() -> dict:
    """code object -> stage name, for every traced function and helper."""
    stages = {}
    for module, attr, name in spans.TRACED + HELPERS:
        fn = importlib.import_module(f"imaginarity.{module}")
        for part in attr.split("."):
            fn = getattr(fn, part)
        stages[fn.__code__] = name
    return stages


def _is_numpy(fn) -> bool:
    """Whether the builtin `fn` belongs to numpy (a function or an array method)."""
    module = getattr(fn, "__module__", None) or type(getattr(fn, "__self__", None)).__module__
    return module.split(".")[0] == "numpy"


def count(rounds: int, seed: int) -> tuple[Counter, int]:
    """(calls per (stage, is numpy), jobs run) over `rounds` survey_small rounds."""
    workload = jobs.Survey(seed)
    jobs.warm_up(workload)
    stages, counts, stack = _stages(), Counter(), []

    def profile(frame, event, arg):
        if event == "c_call":
            counts[stack[-1][1] if stack else "job", _is_numpy(arg)] += 1
        elif event == "call":
            name = stages.get(frame.f_code)
            if name is not None:
                stack.append((frame, name))
        elif event == "return" and stack and stack[-1][0] is frame:
            stack.pop()

    n_jobs = rounds * workload.round_len
    for n in range(n_jobs):
        work, _ = workload.job(n)
        sys.setprofile(profile)
        try:
            work()
        finally:
            sys.setprofile(None)
    return counts, n_jobs


def self_times(rounds: int, seed: int) -> dict:
    """Self time in us per job of each stage over `rounds` survey_small rounds."""
    workload = jobs.Survey(seed)
    jobs.warm_up(workload)
    rec = spans.SpanRecorder()
    n_jobs = rounds * workload.round_len
    with mock.patch.object(spans, "TRACED", spans.TRACED + HELPERS), spans.instrument(rec):
        for n in range(n_jobs):
            work, _ = workload.job(n)
            index = rec.open("job")
            work()
            rec.close(index)
    return {name: t * 1e6 / n_jobs for name, t in rec.self_times().items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rounds", type=int, default=1, help="survey_small rounds to count (30 jobs each)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    counts, n_jobs = count(args.rounds, args.seed)
    times = self_times(args.rounds, args.seed)
    times["total"] = sum(times.values())
    stages = {name for name, _ in counts} | set(times) - {"total"}
    names = sorted(stages, key=lambda n: -counts[n, True])
    print(f"Per survey_small job ({n_jobs} jobs, seed {args.seed}): C-level calls, builtin")
    print("functions and methods only (no operators or ufuncs), and self time in us")
    print(f"{'numpy':>8}  {'other':>8}  {'us':>8}  stage")
    for name in names + ["total"]:
        numpy_calls, other = (
            sum(c for (n, is_np), c in counts.items() if is_np == flag and name in (n, "total"))
            for flag in (True, False)
        )
        us = times.get(name, 0.0)
        print(f"{numpy_calls / n_jobs:8.2f}  {other / n_jobs:8.2f}  {us:8.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
