"""Metric definitions: names, units, direction and, for each per-layer
metric, the end-to-end metric and workload it should move.

``BENCHMARK.json`` lists the same names, units and directions; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

import statistics

# name, unit, better, bound, meaning
END_TO_END = [
    ("norm_wall_s", "s", "lower", 0.24,
     "median over passes of pass time over host-speed probe time (see hostspeed.py), times the "
     "probe's reference time: the time of one pass over the workload's inputs at reference host speed"),
    ("norm_items_per_s", "1/s", "higher", 0.24,
     "items per pass over norm_wall_s; an item is a score row written (noise_sweep), "
     "a score evaluation (hill_climb) or a state checked by a suite or share_sum (verify_ensembles)"),
    ("setup_s", "s", "lower", 0.25,
     "median over fresh processes of import + input generation + one warm-up"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the workload's own process"),
]

WORKLOADS = ALL = ("noise_sweep", "hill_climb", "verify_ensembles")
NS, HC, VE = ALL[:1], ALL[1:2], ALL[2:]
NS_HC = NS + HC

EIG_SIZES = (2, 3, 4, 8, 16, 32, 64)

# name, unit, better, (end-to-end metric it should move, workloads), meaning
PER_LAYER = [
    *[(f"tensor.eig.d{d}.calls", "count", "lower",
       ("norm_wall_s", NS) if d >= 32 else ("norm_items_per_s", HC) if 4 <= d <= 16 else ("norm_wall_s", ALL),
       f"numpy.linalg.eigh/eigvalsh calls on {d}x{d} matrices, wherever called")
      for d in EIG_SIZES],
    ("tensor.eig.calls", "count", "lower", ("norm_wall_s", ALL), "all eigh/eigvalsh calls"),
    ("tensor.eig.self_s", "s", "lower", ("norm_wall_s", ALL), "time inside eigh/eigvalsh"),
    ("tensor.eig.computed_flop", "flop", "lower", ("norm_wall_s", NS),
     "computed (not measured) eigensolver operation count, see tracer.eig_flop3"),
    ("tensor.partial_trace.calls", "count", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.partial_trace.self_s", "s", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.partial_transpose.calls", "count", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.partial_transpose.self_s", "s", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.trace_norm_hermitian.calls", "count", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.trace_norm_hermitian.self_s", "s", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.von_neumann_entropy.calls", "count", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.von_neumann_entropy.self_s", "s", "lower", ("norm_wall_s", NS_HC), ""),
    ("tensor.purity.calls", "count", "lower", ("norm_wall_s", NS_HC), ""),
    ("states.construct.calls", "count", "lower", ("norm_items_per_s", NS_HC),
     "MultipartiteState constructions; each runs a validation eigensolve, counted under tensor.eig"),
    ("states.construct.self_s", "s", "lower", ("norm_items_per_s", NS_HC),
     "self time of construction, without its validation eigensolve"),
    ("states.white_noise_mix.calls", "count", "lower", ("norm_wall_s", NS), "one per p-point"),
    ("states.white_noise_mix.self_s", "s", "lower", ("norm_wall_s", NS), ""),
    ("states.sample_states.self_s", "s", "lower", ("norm_wall_s", VE), "ensemble sampling loop"),
    ("measures.evaluate.calls", "count", "lower", ("norm_wall_s", ALL), "measure dispatch"),
    ("measures.evaluate.self_s", "s", "lower", ("norm_wall_s", ALL), ""),
    ("measures.branch.wootters.calls", "count", "lower", ("norm_wall_s", ALL),
     "evaluate calls answered by the Wootters formula"),
    ("measures.branch.roof2.calls", "count", "lower", ("norm_wall_s", ALL),
     "evaluate calls answered by the rank-2 convex roof"),
    ("measures.branch.pure.calls", "count", "lower", ("norm_wall_s", ALL),
     "evaluate(concurrence or eof) calls minus wootters, roof2 and undefined"),
    ("measures.undefined.count", "count", "lower", ("norm_wall_s", ALL),
     "evaluate calls raising MeasureUndefinedError; should be 0"),
    ("measures.classical_correlation.calls", "count", "lower", ("norm_wall_s", VE),
     "0 on noise_sweep and hill_climb"),
    ("measures.classical_correlation.self_s", "s", "lower", ("norm_wall_s", VE), ""),
    ("measures.discord.calls", "count", "lower", ("norm_wall_s", VE), "0 on noise_sweep and hill_climb"),
    ("measures.discord.self_s", "s", "lower", ("norm_wall_s", VE), ""),
    ("monogamy.base_values.calls", "count", "lower", ("norm_wall_s", ALL), ""),
    ("monogamy.base_values.self_s", "s", "lower", ("norm_wall_s", ALL), ""),
    ("monogamy.power_sweep.calls", "count", "lower", ("norm_wall_s", NS), ""),
    ("monogamy.monogamy_score.calls", "count", "lower", ("norm_items_per_s", HC), ""),
    ("monogamy.strong_monogamy_report.calls", "count", "lower", ("norm_wall_s", VE), ""),
    ("monogamy.hierarchy_chain.calls", "count", "lower", ("norm_wall_s", VE), ""),
    ("monogamy.share_sum.calls", "count", "lower", ("norm_wall_s", VE), ""),
    ("verify.suite.self_s", "s", "lower", ("norm_wall_s", VE),
     "self time of the suite functions: their per-state bookkeeping"),
    ("verify.useful_ratio", "ratio", "higher", ("norm_wall_s", VE),
     "(count - skipped) / count over the suites; 0 when no suite runs"),
    ("verify.search.self_s", "s", "lower", ("norm_items_per_s", HC), "self time of counterexample_search"),
    ("cli.main.calls", "count", "lower", ("norm_wall_s", NS), "0 outside noise_sweep"),
    ("cli.main.self_s", "s", "lower", ("norm_wall_s", NS),
     "self time of cli spans on the main thread: parsing, CSV/JSON writing, waiting on the pool"),
    ("cli.busy_ratio", "ratio", "higher", ("norm_wall_s", NS),
     "span time on worker threads over cli.main wall time"),
    ("calls_per_item", "count", "lower", ("norm_items_per_s", ALL), "wrapped public calls per item"),
    ("trace.overhead_frac", "ratio", "lower", ("norm_wall_s", ALL),
     "median traced pass over median untraced pass, minus 1"),
]

COUNT_METRICS = [name for name, unit, *_ in PER_LAYER if unit in ("count", "flop")]

# per-layer name stems whose span has another name
_SPAN = {"verify.search": "verify.counterexample_search"}


def per_layer(tot: dict, items: int) -> dict:
    """Per-layer values of one traced pass (all but trace.overhead_frac)."""
    calls, self_s, counts = tot["calls"], tot["self_s"], tot["counts"]
    out = {}
    for name, *_ in PER_LAYER:
        stem, _, last = name.rpartition(".")
        if last in ("calls", "self_s"):
            out[name] = tot[last][_SPAN.get(stem, stem)]
    for d in EIG_SIZES:
        out[f"tensor.eig.d{d}.calls"] = counts[f"eig.d{d}"]
    out["tensor.eig.computed_flop"] = counts["eig.flop3"] / 3
    wootters, roof2 = counts["branch.wootters"], counts["branch.roof2"]
    undefined = counts["undefined.concurrence"] + counts["undefined.eof"]
    out["measures.branch.wootters.calls"] = wootters
    out["measures.branch.roof2.calls"] = roof2
    out["measures.branch.pure.calls"] = (
        counts["evaluate.concurrence"] + counts["evaluate.eof"] - wootters - roof2 - undefined
    )
    out["measures.undefined.count"] = sum(v for k, v in counts.items() if k.startswith("undefined."))
    out["verify.suite.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("verify.") and k != "verify.counterexample_search"
    )
    n = counts["suite.count"]
    out["verify.useful_ratio"] = (n - counts["suite.skipped"]) / n if n else 0.0
    out["cli.main.self_s"] = sum(v for k, v in tot["main_self_s"].items() if k.startswith("cli."))
    main_wall = tot["total_s"]["cli.main"]
    out["cli.busy_ratio"] = tot["worker_busy_s"] / main_wall if main_wall else 0.0
    out["calls_per_item"] = sum(calls.values()) / items
    return out


def median_layers(passes: list[dict]) -> dict:
    """Per-layer values over traced passes: counts from the first pass (they
    repeat exactly, which run.check_layers verifies), medians of the rest."""
    return {
        name: passes[0][name] if name in COUNT_METRICS else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
