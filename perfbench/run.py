#!/usr/bin/env python3
"""monolab benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a monolab checkout (the library is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload noise_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A run builds its inputs from ``--seed``, warms up, then repeats closed-loop
passes over the same inputs until ``--seconds`` of pass time have been
measured, checking every pass's outputs. With ``--trace 0`` it reports the
end-to-end metrics: pass times are normalised to the host's speed, sampled
by a fixed probe during each pass (see ``hostspeed.py``), and the raw
``wall_s`` and ``items_per_s`` are printed beside them; ``setup_s`` comes
from fresh processes, one per sample;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, after checking that tracing changed no output, that every
count repeats exactly and that the counts known from the inputs match.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

MIN_PASSES = 3
MIN_TRACED = 2
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_environment() -> None:
    """One BLAS thread, so the CLI's default pool (two workers on two CPUs)
    keeps the process at or under nproc; MONOLAB_THREADS stays unset so the
    pool's default shows."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MONOLAB_THREADS", None)


def import_library():
    """Import monolab from the checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import monolab

    if Path(monolab.__file__).resolve().parent != SRC / "monolab":
        raise BenchError(f"monolab imported from {monolab.__file__}, not {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "MONOLAB_THREADS": os.environ.get("MONOLAB_THREADS", "unset"),
        "machine": platform.machine(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_reference(name: str, seed: int, shape: dict):
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text())
    entry = ref.get(name, {})
    if entry.get("shape") != shape:
        return None
    return entry.get("seeds", {}).get(str(seed))


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """Import + input generation + one warm-up, timed in this fresh process."""
    t0 = time.perf_counter()
    wl = import_library()
    bench = wl.WORKLOADS[workload](seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        bench.warmup(out)
    return time.perf_counter() - t0


def setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = [] if trace else setup_samples(workload, seed)
    wl = import_library()
    bench = wl.WORKLOADS[workload](seed)
    reference = load_reference(workload, seed, bench.shape)
    problems: list[str] = []
    attempted = failed = diverged = 0
    walls = {False: [], True: []}
    layers: list[dict] = []
    first_digest = None
    sampler = hostspeed.Sampler(hostspeed.Probe(bench.probe))
    probes: list[float] = []
    norm_walls: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        bench.warmup(out)
        sampler.probe()  # warm-up
        measured = 0.0
        while True:
            for traced in (False, True) if trace else (False,):
                tracer = Tracer() if traced else None
                if tracer:
                    tracer.install()
                sampler.reset()
                try:
                    t0 = time.perf_counter()
                    if trace:
                        raw = bench.run(out)
                    else:
                        raw = bench.run(out, sampler)
                        sampler()
                    dt = time.perf_counter() - t0 - sum(sampler.times)
                finally:
                    if tracer:
                        tracer.uninstall()
                if not trace:
                    probe_s = statistics.fmean(sampler.times)
                    probes.append(probe_s)
                    norm_walls.append(dt / probe_s * sampler.probe.reference_s)
                res = bench.check(raw, out)
                if reference is not None:
                    diverged = bench.compare_reference(res.summary, reference, res)
                if first_digest is None:
                    first_digest = res.digest
                elif res.digest != first_digest:
                    res.fail("pass", res.items, f"{'traced' if traced else 'untraced'} pass output "
                                                "differs from the first pass")
                attempted += res.items
                failed += res.failed
                problems += res.problems
                walls[traced].append(dt)
                measured += dt
                if tracer:
                    layers.append(metrics.per_layer(tracer.totals(), bench.items))
            if measured >= seconds and len(walls[trace]) >= (MIN_TRACED if trace else MIN_PASSES):
                break
    wall = statistics.median(walls[False])
    result = {
        "workload": workload,
        "seed": seed,
        "items_per_pass": bench.items,
        "passes": len(walls[False]),
        "wall_quartiles": quartiles(walls[False]),
        "attempted": attempted,
        "failed": failed,
        "diverged_from_reference": diverged,
        "reference": reference is not None,
        "problems": list(dict.fromkeys(problems))[:20],
    }
    if trace:
        result["layer_problems"] = check_layers(layers, bench.expected_counts())
        per = metrics.median_layers(layers)
        per["trace.overhead_frac"] = statistics.median(walls[True]) / wall - 1.0
        result["metrics"] = {name: (per[name], unit) for name, unit, *_ in metrics.PER_LAYER}
    else:
        result["setup_quartiles"] = quartiles(setups)
        result["norm_wall_quartiles"] = quartiles(norm_walls)
        result["probe_quartiles"] = quartiles(probes)
        result["probe"] = sampler.probe.name
        result["wall_s"] = wall
        norm_wall = statistics.median(norm_walls)
        result["metrics"] = {
            "norm_wall_s": (norm_wall, "s"),
            "norm_items_per_s": (bench.items / norm_wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    return result


def check_layers(layers: list[dict], expected: dict) -> list[str]:
    """Counts must repeat exactly across traced passes and equal the
    counts known from the inputs."""
    problems = []
    for name in metrics.COUNT_METRICS:
        values = {p[name] for p in layers}
        if len(values) != 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    for name, want in expected.items():
        got = layers[0][name]
        if got != want:
            problems.append(f"{name} = {got}, expected {want} from the inputs")
    return problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(result: dict, env: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    w = result["workload"]
    print(f"# {w} seed={result['seed']} env={json.dumps(env, sort_keys=True)}")
    rate = result["failed"] / result["attempted"]
    print(f"# {w} items/pass={result['items_per_pass']} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} error_rate={rate:.6g} "
          f"reference={'checked' if result['reference'] else 'none for this seed'} "
          f"diverged_from_reference={result['diverged_from_reference']}")
    q1, q2, q3 = result["wall_quartiles"]
    print(f"# {w} wall_s quartiles {q1:.6g} {q2:.6g} {q3:.6g} over {result['passes']} passes")
    if "setup_quartiles" in result:
        q1, q2, q3 = result["norm_wall_quartiles"]
        print(f"# {w} norm_wall_s quartiles {q1:.6g} {q2:.6g} {q3:.6g} over {result['passes']} passes")
        q1, q2, q3 = result["probe_quartiles"]
        print(f"# {w} host-speed probe '{result['probe']}' quartiles {q1:.6g} {q2:.6g} {q3:.6g} s")
        q1, q2, q3 = result["setup_quartiles"]
        print(f"# {w} setup_s quartiles {q1:.6g} {q2:.6g} {q3:.6g} over {SETUP_SAMPLES} processes")
        print(f"{w} wall_s = {result['wall_s']:.9g} s")
        print(f"{w} items_per_s = {result['items_per_pass'] / result['wall_s']:.9g} 1/s")
    print(f"{w} error_rate = {rate:.9g} ratio")
    for name, (value, unit) in result["metrics"].items():
        print(f"{w} {name} = {value:.9g} {unit}")
    for p in result["problems"] + result.get("layer_problems", []):
        print(f"# PROBLEM {w}: {p}")
    correct = result["failed"] == 0 and not result.get("layer_problems")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, since peak memory is per process."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in metrics.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=4 * CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} failed:\n{proc.stderr}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return out


def record_reference(seeds: int) -> None:
    """Record each workload's checked outputs for seeds 0..seeds-1."""
    wl = import_library()
    ref = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        for name in metrics.WORKLOADS:
            entry = ref[name] = {"seeds": {}}
            for seed in range(seeds):
                bench = wl.WORKLOADS[name](seed)
                res = bench.check(bench.run(out), out)
                if res.failed:
                    raise BenchError(f"{name} seed {seed} fails its checks: {res.problems}")
                entry["shape"] = bench.shape
                entry["seeds"][str(seed)] = res.summary
                print(f"# recorded {name} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="noise_sweep, hill_climb, verify_ensembles or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", type=int, metavar="N",
                        help="record reference outputs for seeds 0..N-1 into reference.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    pin_environment()
    try:
        if not (SRC / "monolab" / "__init__.py").is_file():
            raise BenchError(f"no monolab sources under {SRC}; run from a monolab checkout")
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        if args.record_reference:
            record_reference(args.record_reference)
            return 0
        if args.workload == "all":
            out = run_all(args.seed, args.seconds, args.trace)
        else:
            if args.workload not in metrics.WORKLOADS:
                raise BenchError(f"unknown workload {args.workload!r}")
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            out = report(result, environment())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
