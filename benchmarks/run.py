#!/usr/bin/env python3
"""Layered benchmark of the imaginarity toolkit.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload survey_small --seed 1 --seconds 25 --trace 0

Workloads (see benchmarks/WORKLOADS.md for why each exists):

* survey_small   theorem1_pipeline on small states, plus gadget jobs
* channel_large  validate, classify, convert and dilate at d = 256 and 512
* cli_cold       one cold `python -m imaginarity.cli` process per job

Load is a closed loop: one client, each job starting when the previous one
has finished, in whole rounds of a fixed job mix, until --seconds have
passed.  Every job's output is checked; a failed job is counted, never
dropped.  Times are scaled by a reference unit run between jobs, which
cancels slow spells of a shared host (see WORKLOADS.md).

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced rounds, and prints the per-layer
metrics (self times, counts) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
each metric with its unit, the run context and, with --trace 0, a `raw`
line with the unscaled times and the run's median reference time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("survey_small", "channel_large", "cli_cold")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "states.DensityMatrix.self_ms": "ms/job",
    "states.DensityMatrix.calls": "count/job",
    "states.density_from_json.self_ms": "ms/job",
    "measures.classify.self_ms": "ms/job",
    "measures.imaginarity_trace_norm.self_ms": "ms/job",
    "measures.overlap_conj.self_ms": "ms/job",
    "linalg.skew_canonical.self_ms": "ms/job",
    "linalg.orthonormal_complete.self_ms": "ms/job",
    "linalg.hermitian_eig.self_ms": "ms/job",
    "linalg.partial_trace.self_ms": "ms/job",
    "linalg.spectral_calls_per_job": "count/job",
    "realops.align_for_state.self_ms": "ms/job",
    "realops.convert_to_plus_hat.self_ms": "ms/job",
    "realops.apply_kraus.self_ms": "ms/job",
    "realops.apply_kraus.kraus_ops": "count/job",
    "realops.dilate.self_ms": "ms/job",
    "realops.apply_dilation.self_ms": "ms/job",
    "gatesim.verify_instance.self_ms": "ms/job",
    "gatesim.verify_instance.calls": "count/job",
    "gatesim.verify_instance.probes": "count/job",
    "gatesim.verify_instance.dense_mb_computed": "MB/job",
    "gatesim.verify_useful_ratio": "ratio",
    "gatesim.hs_consistency.self_ms": "ms/job",
    "gatesim.theorem1_pipeline.self_ms": "ms/job",
    "cli.main.self_ms": "ms/job",
    "cli.interpreter_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.package_import_ms": "ms",
    "tracing_overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Reference time the reported times are scaled to: a job that took t
#: seconds next to a reference unit that took r is reported as
#: t * REFERENCE_S / r.  Fixed, so figures compare between runs on one host.
REFERENCE_S = 0.012
#: Cold set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
#: The tail is read at the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Stated bound on the share of traced job time that no layer span covers.
UNATTRIBUTED_LIMIT = 0.05
#: Cold processes per probe in the traced run's interpreter/import probes.
COLD_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, cold: bool = True):
    """Import, generate inputs and warm up.

    Returns the workload, the set-up time in seconds and the median of
    three reference units run straight after it.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import jobs  # imports numpy and the package

    if workload == "survey_small":
        wl = jobs.Survey(seed)
    elif workload == "channel_large":
        wl = jobs.Channel(seed)
    else:
        workdir = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
        wl = jobs.Cli(seed, ROOT, workdir, cold=cold)
    jobs.warm_up(wl)
    seconds = time.perf_counter() - t0
    reference = jobs.Reference()
    return wl, seconds, statistics.median(reference.run() for _ in range(3))


def setup_probe(workload: str, seed: int) -> tuple:
    """Set-up time and reference time of a fresh process, so that imports are cold again."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["reference_s"]


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_context(args) -> dict:
    import platform

    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "load": "closed loop, 1 client, no threads",
    }


def latency_summary(latencies) -> dict:
    xs = sorted(latencies)
    n = len(xs)
    # 1-based rank with TAIL_BEYOND samples beyond it; the maximum if too few
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {
        "n": n,
        "p50": statistics.median(xs),
        "tail": xs[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "beyond": n - rank,
        "busy": sum(xs),
    }


def failures(outcomes):
    reasons = {}
    for _, failure in outcomes:
        if failure is not None:
            reasons[failure] = reasons.get(failure, 0) + 1
    return reasons


def result_line(outcomes, metrics, units) -> str:
    from jobs import UNVERIFIED

    reasons = failures(outcomes)
    # a job that raised or returned a wrong value makes the run incorrect; a
    # universal verdict whose gadget did not verify is counted failed only
    wrong = sum(k for r, k in reasons.items() if r != UNVERIFIED)
    return json.dumps({
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": sum(reasons.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def show(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<10}{note}")


def scaled(outcomes, refs):
    return [t * REFERENCE_S / r for (t, _), r in zip(outcomes, refs)]


def measure(args) -> None:
    wl, own_seconds, own_reference = setup(args.workload, args.seed)
    import jobs

    try:
        outcomes, refs = jobs.run_rounds(wl, args.seconds)
    finally:
        wl.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [(own_seconds, own_reference)] + [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
    ]
    setup_scaled = [s * REFERENCE_S / r for s, r in setups]

    raw = latency_summary([t for t, _ in outcomes])
    lat = latency_summary(scaled(outcomes, refs))
    reasons = failures(outcomes)
    metrics = {
        "jobs_per_s": lat["n"] / lat["busy"],
        "job_p50_ms": 1e3 * lat["p50"],
        "job_tail_ms": 1e3 * lat["tail"],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }
    unscaled = {
        "jobs_per_s": raw["n"] / raw["busy"],
        "job_p50_ms": 1e3 * raw["p50"],
        "job_tail_ms": 1e3 * raw["tail"],
        "setup_s": statistics.median(s for s, _ in setups),
        "reference_ms": 1e3 * statistics.median(refs),
        "setup_reference_ms": 1e3 * statistics.median(r for _, r in setups),
    }
    print(f"{args.workload}: {lat['n']} jobs, {raw['busy']:.3f} s busy, seed {args.seed}; "
          f"times scaled to a {1e3 * REFERENCE_S:g} ms reference unit "
          f"(median {1e3 * statistics.median(refs):.2f} ms in this run)")
    notes = {
        "jobs_per_s": f"  completed jobs / busy time; unscaled {unscaled['jobs_per_s']:.6g}",
        "job_p50_ms": f"  unscaled {unscaled['job_p50_ms']:.6g}",
        "job_tail_ms": f"  p{lat['tail_percentile']:.2f}, {lat['beyond']} of {lat['n']} samples "
                       f"beyond; unscaled {unscaled['job_tail_ms']:.6g}",
        "peak_rss_mb": "  CLI child processes" if args.workload == "cli_cold" else "  this process",
        "setup_s": "  median of " + ", ".join(f"{s:.3f}" for s in setup_scaled)
                   + f"; unscaled {unscaled['setup_s']:.6g}",
    }
    for name, unit in END_TO_END.items():
        show(name, metrics[name], unit, notes.get(name, ""))
    failed = sum(reasons.values())
    show("failed_frac", failed / lat["n"], "ratio", f"  {failed} of {lat['n']} {reasons or ''}")
    print("context " + json.dumps(run_context(args)))
    print("raw " + json.dumps(unscaled))
    print(result_line(outcomes, metrics, END_TO_END))


def cold_probes() -> dict:
    """Interpreter start, numpy import and package import, in fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        "import imaginarity.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
    )
    interp, np_import, pkg_import = [], [], []
    for _ in range(COLD_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        np_import.append(float(out[0]))
        pkg_import.append(float(out[1]))
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(interp),
        "cli.numpy_import_ms": 1e3 * statistics.median(np_import),
        "cli.package_import_ms": 1e3 * statistics.median(pkg_import),
    }


def layer_metrics(rec, refs) -> dict:
    """Per-layer metrics of the traced jobs; `refs` holds each traced job's reference time."""
    import spans

    n_jobs = len(refs)
    self_s = rec.self_times([REFERENCE_S / r for r in refs])
    calls = rec.calls()
    out = {}
    for _, _, name in spans.TRACED:
        out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0) / n_jobs
    out["states.DensityMatrix.calls"] = calls["states.DensityMatrix"] / n_jobs
    out["gatesim.verify_instance.calls"] = calls["gatesim.verify_instance"] / n_jobs
    out["linalg.spectral_calls_per_job"] = (
        calls["linalg.hermitian_eig"] + calls["linalg.skew_canonical"]
    ) / n_jobs
    out["realops.apply_kraus.kraus_ops"] = rec.counts["realops.apply_kraus.kraus_ops"] / n_jobs
    out["gatesim.verify_instance.probes"] = rec.counts["gatesim.verify_instance.probes"] / n_jobs
    out["gatesim.verify_instance.dense_mb_computed"] = (
        rec.counts["gatesim.verify_instance.dense_bytes"] / 1e6 / n_jobs
    )
    verify_calls = calls["gatesim.verify_instance"]
    out["gatesim.verify_useful_ratio"] = len(rec.verified) / verify_calls if verify_calls else 1.0
    job_total = sum(
        (end - start) * REFERENCE_S / refs[job]
        for name, start, end, _, job in rec.spans
        if name == spans.JOB
    )
    out["trace.unattributed_frac"] = self_s.get(spans.JOB, 0.0) / job_total
    return out


def traced(args) -> None:
    import spans

    # cli_cold's layers are traced on the same rotation run in-process
    wl, _, _ = setup(args.workload, args.seed, cold=False)
    import jobs

    rec = spans.SpanRecorder()
    try:
        outcomes, refs = jobs.run_rounds(wl, args.seconds, rec)
    finally:
        wl.close()
    kinds = [jobs.traced_round(n, wl.round_len) for n in range(len(outcomes))]
    traced_refs = [r for r, kind in zip(refs, kinds) if kind]
    latency = scaled(outcomes, refs)
    context = run_context(args)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    rec.write(trace_path, {"context": context})

    metrics = layer_metrics(rec, traced_refs)
    # traced and untraced rounds run the same jobs equally often
    plain_per_job = statistics.fmean(t for t, kind in zip(latency, kinds) if not kind)
    traced_per_job = statistics.fmean(t for t, kind in zip(latency, kinds) if kind)
    metrics["tracing_overhead_frac"] = traced_per_job / plain_per_job - 1.0
    metrics.update(cold_probes())

    print(f"{args.workload} traced: {len(traced_refs)} traced and "
          f"{len(outcomes) - len(traced_refs)} untraced jobs in alternating rounds, "
          f"seed {args.seed}; spans in {os.path.relpath(trace_path, ROOT)}")
    for name, unit in PER_LAYER.items():
        show(name, metrics[name], unit)
    within = metrics["trace.unattributed_frac"] <= UNATTRIBUTED_LIMIT
    print(f"  layer self times cover the traced job wall time within "
          f"{UNATTRIBUTED_LIMIT:.0%}: {'yes' if within else 'NO'}")
    failed = sum(failures(outcomes).values())
    show("failed_frac", failed / len(outcomes), "ratio", f"  {failed} of {len(outcomes)}")
    print("context " + json.dumps(context))
    print(result_line(outcomes, metrics, PER_LAYER))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "imaginarity", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        wl, seconds, reference = setup(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": seconds, "reference_s": reference}))
    elif args.trace:
        traced(args)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
