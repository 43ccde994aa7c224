"""Self-checks of the benchmark: the tracer's counts are exact, repeatable
and leave results unchanged, and BENCHMARK.json matches metrics.py.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import metrics
import run
from tracer import Tracer

run.pin_environment()
wl = run.import_library()

SMALL = {
    "noise_sweep": dict(p_points=11),
    "hill_climb": dict(restarts=1),
    "verify_ensembles": dict(pure3=4, mixed3=4, pure4=2, share=1),
}


def traced_pass(bench, out):
    tracer = Tracer()
    with tracer:
        raw = bench.run(out)
    return bench.check(raw, out), tracer.totals()


@pytest.fixture(scope="module", params=metrics.WORKLOADS)
def passes(request):
    """One untraced and two traced passes of a small instance."""
    name = request.param
    bench = wl.WORKLOADS[name](7, **SMALL[name])
    with tempfile.TemporaryDirectory() as out:
        bench.warmup(out)
        plain = bench.check(bench.run(out), out)
        traced = [traced_pass(bench, out) for _ in range(2)]
    return name, bench, plain, traced


def test_outputs_pass_their_checks(passes):
    _, _, plain, traced = passes
    for res in [plain] + [r for r, _ in traced]:
        assert res.failed == 0, res.problems


def test_tracing_leaves_outputs_unchanged(passes):
    _, _, plain, traced = passes
    assert all(res.digest == plain.digest for res, _ in traced)


def test_counts_repeat_exactly(passes):
    _, bench, _, traced = passes
    a, b = (metrics.per_layer(tot, bench.items) for _, tot in traced)
    assert {k: a[k] for k in metrics.COUNT_METRICS} == {k: b[k] for k in metrics.COUNT_METRICS}


def test_counts_known_from_inputs(passes):
    name, bench, _, traced = passes
    layer = metrics.per_layer(traced[0][1], bench.items)
    expected = bench.expected_counts()
    assert {k: layer[k] for k in expected} == expected
    if name == "hill_climb":
        assert layer["monogamy.monogamy_score.calls"] == 3 * bench.restarts * 251


def test_bypass_predictions(passes):
    name, bench, _, traced = passes
    layer = metrics.per_layer(traced[0][1], bench.items)
    if name == "verify_ensembles":
        assert layer["measures.classical_correlation.calls"] > 0
    else:
        assert layer["measures.classical_correlation.calls"] == 0
    assert (layer["cli.main.calls"] > 0) == (name == "noise_sweep")
    assert (layer["tensor.eig.d64.calls"] > 0) == (name == "noise_sweep")
    assert layer["measures.undefined.count"] == 0


def test_self_time_adds_up_per_thread(passes):
    """Self times of one thread sum to the time its root spans cover; a
    stack shared between threads would break this."""
    name, _, _, traced = passes
    tot = traced[0][1]
    main = math.fsum(tot["main_self_s"].values())
    workers = math.fsum(tot["self_s"].values()) - main
    assert main == pytest.approx(tot["main_root_s"], rel=1e-9, abs=1e-12)
    assert workers == pytest.approx(tot["worker_busy_s"], rel=1e-9, abs=1e-12)
    assert all(v >= 0.0 for v in tot["self_s"].values())
    if name == "noise_sweep":
        assert tot["worker_busy_s"] > 0.0  # the CLI's pool ran spans on its workers


def test_tracer_wraps_every_binding_site_and_restores_them():
    from monolab import monogamy, states, verify

    originals = (monogamy.base_values, verify.base_values, verify.monogamy_score,
                 monogamy.evaluate, states.MultipartiteState.__dict__["__post_init__"])
    assert originals[0] is originals[1]
    with Tracer():
        assert verify.base_values is monogamy.base_values is not originals[0]
        assert verify.monogamy_score is monogamy.monogamy_score is not originals[2]
        assert monogamy.evaluate is not originals[3]
    after = (monogamy.base_values, verify.base_values, verify.monogamy_score,
             monogamy.evaluate, states.MultipartiteState.__dict__["__post_init__"])
    assert all(a is b for a, b in zip(originals, after))


def test_manifest_matches_metric_tables():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        (name, unit, better, bound) for name, unit, better, bound, _ in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in metrics.PER_LAYER
    ]


def test_host_speed_probes_do_not_use_the_library():
    # a change to monolab must move the pass times and never the probes
    code = ("import sys, hostspeed\n"
            "assert all(hostspeed.Probe(n)() > 0 for n in hostspeed.REFERENCE_S)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'monolab'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_refuses_to_run_without_the_library(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hill_climb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
