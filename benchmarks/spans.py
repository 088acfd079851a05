"""In-memory span recorder and the wrappers that feed it.

Spans are recorded around the package's public functions from outside:
`instrument` replaces each traced function wherever a module of the
package binds it and puts every original back when it exits, so the
package's sources are never edited.  A span is (name, start, end, parent,
job); spans stay in memory and are written out once, at the end of a run.
A span's self time is its duration minus the durations of its children;
calls are strictly nested (one thread), so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

JOB = "job"

#: (module, attribute, span name).  `DensityMatrix` is traced through its
#: validating `__post_init__`, so every construction is counted.
TRACED = (
    ("states", "DensityMatrix.__post_init__", "states.DensityMatrix"),
    ("states", "density_from_json", "states.density_from_json"),
    ("measures", "classify", "measures.classify"),
    ("measures", "imaginarity_trace_norm", "measures.imaginarity_trace_norm"),
    ("measures", "overlap_conj", "measures.overlap_conj"),
    ("linalg", "skew_canonical", "linalg.skew_canonical"),
    ("linalg", "orthonormal_complete", "linalg.orthonormal_complete"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "partial_trace", "linalg.partial_trace"),
    ("realops", "align_for_state", "realops.align_for_state"),
    ("realops", "convert_to_plus_hat", "realops.convert_to_plus_hat"),
    ("realops", "apply_kraus", "realops.apply_kraus"),
    ("realops", "dilate", "realops.dilate"),
    ("realops", "apply_dilation", "realops.apply_dilation"),
    ("gatesim", "verify_instance", "gatesim.verify_instance"),
    ("gatesim", "hs_consistency", "gatesim.hs_consistency"),
    ("gatesim", "theorem1_pipeline", "gatesim.theorem1_pipeline"),
    ("cli", "main", "cli.main"),
)

PACKAGE_MODULES = ("linalg", "states", "measures", "realops", "gatesim", "cli")


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counts = Counter()
        self.verified = set()  # (job, id(instance)) pairs seen by verify_instance
        self.job = -1
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self, job_scale=None) -> dict:
        """Total self time in seconds per span name.

        `job_scale[j]`, if given, multiplies the self times of job j's spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, job) in enumerate(self.spans):
            scale = 1.0 if job_scale is None else job_scale[job]
            out[name] += ((end - start) - child_time[i]) * scale
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent, job] line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def _count_kraus(rec, args, kwargs, result):
    kraus = args[0] if args else kwargs["kraus"]
    rec.counts["realops.apply_kraus.kraus_ops"] += len(kraus.operators)


def _count_verify(rec, args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    n = inst.unitary.shape[0]
    rec.counts["gatesim.verify_instance.probes"] += result.probe_count
    # each probe builds two dense N x N complex128 matrices (lhs and rhs)
    rec.counts["gatesim.verify_instance.dense_bytes"] += result.probe_count * 2 * n * n * 16
    rec.verified.add((rec.job, id(inst)))


COUNTERS = {
    "realops.apply_kraus": _count_kraus,
    "gatesim.verify_instance": _count_verify,
}


def _wrap(rec, name, fn):
    count = COUNTERS.get(name)

    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(rec: SpanRecorder):
    """Route every traced function of the package through `rec`."""
    import imaginarity.cli  # noqa: F401  (loads every module of the package)

    modules = [sys.modules["imaginarity"]] + [
        sys.modules[f"imaginarity.{m}"] for m in PACKAGE_MODULES
    ]
    undo = []
    try:
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[f"imaginarity.{module_name}"]
            if "." in attr:  # a method: patch it on its class, once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(rec, span_name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            traced = _wrap(rec, span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        undo.append((module, key, original))
        yield rec
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
