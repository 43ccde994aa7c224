"""The benchmark's pinned counts, checked with the unit tests: one traced
pass of each workload at a small shape must give every count that the
workload derives from its inputs (``expected_counts``), so a change that
moves a pinned count fails here before the benchmark runs. The tracer,
metrics and workloads modules are imported from ``perfbench/`` as they are
and are not modified.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SMALL = {
    "noise_sweep": dict(p_points=3),
    "hill_climb": dict(restarts=1, max_steps=5),
    "verify_ensembles": dict(pure3=2, mixed3=2, pure4=2, share=1),
}


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import metrics
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return metrics, tracer, workloads


@pytest.mark.parametrize("name", sorted(SMALL))
def test_one_traced_pass_gives_every_pinned_count(perfbench, name, tmp_path):
    metrics, tracer, workloads = perfbench
    bench = workloads.WORKLOADS[name](0, **SMALL[name])
    bench.warmup(str(tmp_path))  # as the benchmark does before its passes
    t = tracer.Tracer()
    t.install()
    try:
        raw = bench.run(str(tmp_path))
    finally:
        t.uninstall()
    assert bench.check(raw, str(tmp_path)).failed == 0
    layers = metrics.per_layer(t.totals(), bench.items)
    expected = bench.expected_counts()
    assert expected
    assert {k: layers[k] for k in expected} == expected
