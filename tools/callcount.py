#!/usr/bin/env python3
"""Count the C-level calls per stage of a survey_small job.

Run from the root of a checkout:

    python3 tools/callcount.py --rounds 1

Runs survey_small's jobs as the benchmark runs them (the inputs of
benchmarks/inputs.py through the `work` of benchmarks/jobs.py), after one
warm-up round, under `sys.setprofile`.  A C-level call is what the
profiler reports as `c_call`: a builtin function or method.  Those of
numpy (ndarray methods, `np.asarray`, `np.linalg`'s helpers) cost about a
microsecond each at small d and are counted apart from the rest (`abs`,
`len`, `list.append`, `math.sqrt`), which cost tens of nanoseconds.
Ufunc calls and operators such as `@` raise no event and are not
counted.  Each call is charged to the innermost stage running: the traced
functions of benchmarks/spans.py, under their span names, and a few
internal helpers; calls outside every stage go to `job`.  The counts are
per job, averaged over the rounds, and do not depend on the host, so they
show per-call overhead that timings at small d hide in noise.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import jobs  # noqa: E402
import spans  # noqa: E402

#: Internal helpers counted as stages of their own, next to spans.TRACED.
HELPERS = (
    ("linalg", "_symmetric_part", "linalg._symmetric_part"),
    ("linalg", "_canonical_form", "linalg._canonical_form"),
    ("linalg", "_cuts", "linalg._cuts"),
    ("realops", "_compress", "realops._compress"),
    ("gatesim", "_probe_deviations", "gatesim._probe_deviations"),
    ("states", "_validate", "states._validate"),
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rounds", type=int, default=1, help="survey_small rounds to count (30 jobs each)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    counts, n_jobs = count(args.rounds, args.seed)
    names = sorted({name for name, _ in counts}, key=lambda n: -counts[n, True])
    print(f"C-level calls per survey_small job ({n_jobs} jobs, seed {args.seed})")
    print(f"{'numpy':>8}  {'other':>8}  stage")
    for name in names + ["total"]:
        numpy_calls, other = (
            sum(c for (n, is_np), c in counts.items() if is_np == flag and name in (n, "total"))
            for flag in (True, False)
        )
        print(f"{numpy_calls / n_jobs:8.2f}  {other / n_jobs:8.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
