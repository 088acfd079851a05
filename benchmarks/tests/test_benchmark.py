"""Tests of the benchmark itself (not of the package).

Run from the root of the repository:

    python3 -m pytest -q benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import jobs
import run
import spans
from imaginarity import gatesim


def _arrays(items):
    out = []
    for item in items:
        if isinstance(item, inputs.GadgetInput):
            out.append(item.resource.raw)
            if item.data_orthogonal is not None:
                out += [item.data_orthogonal, item.resource_orthogonal]
        else:
            out.append(item.raw)
    return out


def _cli_arrays(data):
    return [data.universal.raw, data.zero.raw, data.unitary, np.array(data.gen_seeds)]


@pytest.mark.parametrize(
    "make, flatten",
    [(inputs.survey_inputs, _arrays), (inputs.channel_inputs, _arrays), (inputs.cli_inputs, _cli_arrays)],
)
def test_generator_is_deterministic_per_seed(make, flatten):
    first, again, other = flatten(make(5)), flatten(make(5)), flatten(make(6))
    assert len(first) == len(again) == len(other)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(first, other))


def test_generated_inputs_have_the_stated_properties():
    for inp in inputs.channel_inputs(1)[:2] + [
        x for x in inputs.survey_inputs(1) if isinstance(x, inputs.StateInput)
    ]:
        m = inp.raw
        overlap = np.trace(m @ m.conj()).real
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(m)) > -1e-12
        assert abs(inputs.reference_trace_norm(m) - inp.trace_norm) < 1e-9
        if inp.kind == inputs.MAX_IMAGINARY:
            assert abs(overlap) < 1e-12
        elif inp.kind == inputs.NEAR_THRESHOLD:
            assert abs(overlap - inputs.NEAR_OVERLAP) < 1e-12


def test_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"][1:] == ["benchmarks/run.py"]


def test_one_survey_round_fails_only_on_the_near_threshold_defect():
    wl = jobs.Survey(2)
    outcomes, refs = jobs.run_rounds(wl, 0)
    assert len(outcomes) == wl.round_len and refs
    # the d = 16 near-threshold job: universal verdict, gadget not verified
    assert [f for _, f in outcomes if f is not None] == [jobs.UNVERIFIED]


def test_wrong_pipeline_output_is_counted_in_failed(monkeypatch):
    real = gatesim.theorem1_pipeline

    def off_by_a_little(rho, *args, **kwargs):
        res = real(rho, *args, **kwargs)
        return gatesim.PipelineResult(res.report, res.best_fidelity + 1e-3, res.conversion, res.gadget_verified)

    monkeypatch.setattr(gatesim, "theorem1_pipeline", off_by_a_little)
    wl = jobs.Survey(2)
    outcomes, _ = jobs.run_rounds(wl, 0)
    pipeline_slots = sum(1 for slot in inputs.survey_round() if slot[0] == "pipeline")
    assert sum(1 for _, f in outcomes if f == "fidelity") == pipeline_slots
    line = json.loads(run.result_line(outcomes, {"x": 1.0}, {"x": "s"}))
    assert line["correct"] is False
    assert line["failed"] == pipeline_slots
    assert line["attempted"] == wl.round_len


def test_kraus_dilation_mismatch_and_cli_codes_are_failures():
    inp = inputs.channel_inputs(1)[1]  # random, d = 256
    out = np.eye(2) / 2
    conversion = SimpleNamespace(
        fidelity=0.5 + inp.trace_norm / 4, output=SimpleNamespace(matrix=out)
    )
    shifted = SimpleNamespace(matrix=out + 1e-6)
    assert jobs.check_channel(inp, (None, conversion, shifted)) == "kraus_vs_dilation"

    data = inputs.cli_inputs(1)
    payload = [{"error": "x", "report": {"verdict": "zero"}, "best_fidelity": 0.5 + data.zero.trace_norm / 4}]
    assert jobs.check_cli("simulate_cs", 4, payload, data) is None
    assert jobs.check_cli("simulate_cs", 0, payload, data) == "cli_exit"
    assert jobs.check_cli("simulate_cs", 4, [{"error": "x"}], data) == "cli_keys"


def test_raising_job_is_counted():
    def work():
        raise ValueError("boom")

    latency, failure = jobs.run_job(work, lambda r: None)
    assert failure == "raised:ValueError" and latency >= 0


def test_traced_rounds_alternate_add_up_and_counts_repeat():
    wl = jobs.Survey(3)
    metrics = []
    for _ in range(2):
        rec = spans.SpanRecorder()
        outcomes, refs = jobs.run_rounds(wl, 0, rec)
        # one untraced round, then one traced round
        assert len(refs) == len(outcomes) == 2 * wl.round_len
        kinds = [jobs.traced_round(n, wl.round_len) for n in range(len(outcomes))]
        assert kinds == [False] * wl.round_len + [True] * wl.round_len
        assert rec.calls()[spans.JOB] == wl.round_len
        metrics.append(run.layer_metrics(rec, [r for r, k in zip(refs, kinds) if k]))
    assert gatesim.theorem1_pipeline.__module__ == "imaginarity.gatesim"
    assert not hasattr(gatesim.theorem1_pipeline, "__wrapped__")
    first, second = metrics
    assert first["trace.unattributed_frac"] <= run.UNATTRIBUTED_LIMIT
    for name in (
        "linalg.spectral_calls_per_job",
        "realops.apply_kraus.kraus_ops",
        "gatesim.verify_instance.probes",
        "gatesim.verify_instance.dense_mb_computed",
        "gatesim.verify_useful_ratio",
        "states.DensityMatrix.calls",
    ):
        assert first[name] == second[name] > 0, name
    # hs_consistency verifies every gadget instance a second time
    assert first["gatesim.verify_useful_ratio"] < 1.0


def test_run_refuses_without_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "survey_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
