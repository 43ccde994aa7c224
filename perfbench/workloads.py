"""The benchmark's three workloads.

Each workload is built from the workload seed alone: a ``random.Random``
seeded with it draws every library seed, rank and measure choice, and the
library sees only those generated inputs. ``run`` is the timed pass and
calls only the public API; ``check`` validates its outputs afterwards,
untimed.

The workloads use the same ``tensor`` and ``states`` code in three ways, so
that a batching gain for one that adds per-call overhead on another shows:

* ``noise_sweep``: one shared affine family per command (white-noise grids
  through ``cli.main``, with its thread pool and CSV/JSON writing);
* ``hill_climb``: one dependent chain of states per restart;
* ``verify_ensembles``: independent, unrelated states.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

from monolab import cli, monogamy, states, verify
from monolab.measures import Measure, MeasureKind

TOL = 1e-9


@dataclass
class Checked:
    """Outcome of checking one pass."""

    items: int
    digest: str = ""  # exact outputs: passes, traced or not, must agree
    summary: dict = field(default_factory=dict)  # compared with the reference
    problems: list[str] = field(default_factory=list)
    _failed: dict = field(default_factory=dict)  # output unit -> failed items in it

    def fail(self, unit: str, n: int, why: str) -> None:
        """Mark n items of one output unit (a command, call or suite) failed;
        several findings on one unit count its items once."""
        self._failed[unit] = max(self._failed.get(unit, 0), n)
        if len(self.problems) < 20:
            self.problems.append(f"{unit}: {why}")

    @property
    def failed(self) -> int:
        return min(self.items, sum(self._failed.values()))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _nothing() -> None:
    pass


def _attempt(call, between=_nothing):
    """Run one unit's library call. An exception becomes that unit's output,
    which check() counts as failed, so one bad unit does not end the run.
    ``between`` runs first: the timed passes sample the host's speed there."""
    between()
    try:
        return call()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# noise_sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    name: str
    argv: tuple[str, ...]
    out: str
    fmt: str
    base: tuple  # ("figure", name), ("named", n, name) or ("mixed", n, rank, seed)
    measures: tuple[str, ...]
    p_grid: tuple[float, ...]
    r_grid: tuple[float, ...]

    @property
    def n_qubits(self) -> int:
        return 3 if self.base[0] == "figure" else self.base[1]

    @property
    def p_points(self) -> int:
        return len(self.p_grid) * len(self.measures)

    @property
    def rows(self) -> int:
        return self.p_points * len(self.r_grid)


def _grid(lo: float, hi: float, num: int) -> tuple[float, ...]:
    # the same arithmetic as the CLI's lo:hi:num grid syntax
    return tuple(lo + (hi - lo) * i / (num - 1) for i in range(num))


class NoiseSweep:
    """``figure 1|2|3`` and white-noise ``sweep`` commands through ``cli.main``.

    The sweeps run on w5, ghz5, w6, ghz6 (one measure each) and on random
    mixed 5- and 6-qubit states (both measures; rank and library seed drawn
    from the workload seed), with r-grid 1,2. Negativity sweeps write CSV,
    log-negativity sweeps JSON; the seed changes values, not the amount of
    work. MONOLAB_THREADS stays unset, so the CLI's default worker pool runs.
    """

    name = "noise_sweep"
    probe = "pool"  # the CLI runs each sweep through its thread pool
    MEASURES = ("negativity", "lognegativity")

    def __init__(self, seed: int, p_points: int = 101):
        rng = random.Random(seed)
        self.shape = {"p_points": p_points}
        self.commands: list[_Command] = []
        self._rows_seed = rng.randrange(2**31)  # which rows check() re-scores
        fig_p = cli.FIGURE_P_GRID
        self._add("figure1", ("figure", "1"), "csv", ("figure", "ghz3"), self.MEASURES, fig_p, (1.0, 2.0))
        self._add("figure2", ("figure", "2"), "csv", ("figure", "w3"), self.MEASURES, fig_p, (1.0, 2.0))
        self._add("figure3", ("figure", "3"), "csv", ("figure", "w3"), ("lognegativity",), (0.0,),
                  cli.FIGURE_R_GRID)
        p_grid = _grid(0.0, 1.0, p_points)
        for name, measure in zip(("w5", "ghz5", "w6", "ghz6"), self.MEASURES * 2):
            self._sweep(name, ("--state", name), ("named", int(name[-1]), name), measure, p_grid)
        for n in (5, 6):
            rank, lib_seed = rng.randint(2, 2**n), rng.randrange(2**31)
            state_args = ("--state", "random-mixed", "--dims", ",".join("2" * n),
                          "--rank", str(rank), "--seed", str(lib_seed))
            for measure in self.MEASURES:
                self._sweep(f"mixed{n}", state_args, ("mixed", n, rank, lib_seed), measure, p_grid)

    def _sweep(self, name, state_args, base, measure, p_grid):
        fmt = "csv" if measure == "negativity" else "json"
        argv = ("sweep", "--measure", measure, *state_args,
                "--p-grid", f"0:1:{len(p_grid)}", "--r-grid", "1,2", "--format", fmt)
        self._add(f"{name}-{measure}", argv, fmt, base, (measure,), p_grid, (1.0, 2.0))

    def _add(self, name, argv, fmt, base, measures, p_grid, r_grid):
        self.commands.append(_Command(name, tuple(argv), f"{name}.{fmt}", fmt, base,
                                      tuple(measures), tuple(p_grid), tuple(r_grid)))

    @property
    def items(self) -> int:
        return sum(c.rows for c in self.commands)

    def run(self, out_dir: str, between=_nothing) -> list[int]:
        return [_attempt(lambda: cli.main([*c.argv, "--out", os.path.join(out_dir, c.out)]), between)
                for c in self.commands]

    def _base_state(self, c: _Command):
        if c.base[0] == "mixed":
            n, rank, lib_seed = c.base[1:]
            return states.random_mixed((2,) * n, rank, lib_seed)
        return states.named_state(c.base[-1])

    @staticmethod
    def _read(path: str, fmt: str) -> list[tuple]:
        """Rows as (p, r, measure, whole, parts, delta)."""
        with open(path, encoding="utf-8") as f:
            if fmt == "json":
                return [(r["p"], r["r"], r["measure"], r["whole"], tuple(r["parts"]), r["delta"])
                        for r in json.load(f)["rows"]]
            rows = list(csv.reader(f))[1:]
        return [(float(r[0]), float(r[1]), r[2], float(r[3]),
                 tuple(float(x) for x in r[4:-1]), float(r[-1])) for r in rows]

    def check(self, exits: list, out_dir: str) -> Checked:
        res = Checked(self.items)
        blobs, summary = {}, {}
        rows_rng = random.Random(self._rows_seed)
        for c, code in zip(self.commands, exits):
            if code != 0:
                res.fail(c.name, c.rows, f"exit code {code}")
                continue
            path = os.path.join(out_dir, c.out)
            with open(path, "rb") as f:
                blobs[c.out] = hashlib.sha256(f.read()).hexdigest()
            rows = self._read(path, c.fmt)
            if len(rows) != c.rows:
                res.fail(c.name, c.rows, f"{len(rows)} rows, expected {c.rows}")
                continue
            bad = [r for r in rows if not all(math.isfinite(v) for v in (r[0], r[1], r[3], *r[4], r[5]))]
            if bad:
                res.fail(c.name, len(bad), f"{len(bad)} rows with non-finite values")
            if c.name == "figure1":
                hit = [r for r in rows if r[0] == 0.0 and r[1] == 1.0 and r[2] == "negativity"]
                if len(hit) != 1 or not _close(hit[0][5], 0.5):
                    res.fail(c.name, 1, "delta(p=0, r=1, negativity) != 0.5")
            base = self._base_state(c)
            for row in rows_rng.sample(rows, 2):
                p, r, measure, _, _, delta = row
                kind = MeasureKind(Measure.from_string(measure))
                score = monogamy.monogamy_score(kind, states.white_noise_mix(base, p), 0, r).score
                if not _close(score, delta):
                    res.fail(c.name, 1, f"row p={p} r={r} delta {delta!r} != rescored {score!r}")
            summary[c.name] = [
                len(rows),
                math.fsum(r[3] for r in rows),
                math.fsum(math.fsum(r[4]) for r in rows),
                math.fsum(r[5] for r in rows),
                math.fsum((i + 1) * r[5] for i, r in enumerate(rows)),
            ]
        for name in os.listdir(out_dir):
            if name.endswith(".meta.json"):
                with open(os.path.join(out_dir, name), "rb") as f:
                    blobs[name] = hashlib.sha256(f.read()).hexdigest()
        res.digest = _digest(blobs)
        res.summary = summary
        return res

    def compare_reference(self, summary: dict, ref: dict, res: Checked) -> int:
        for c in self.commands:
            got, want = summary.get(c.name), ref.get(c.name)
            if got is None:
                continue  # already failed by check()
            if want is None or len(got) != len(want) or not all(map(_close, got, want)):
                res.fail(c.name, c.rows, "outputs differ from the recorded reference")
        return 0

    def expected_counts(self) -> dict:
        six = [c for c in self.commands if c.n_qubits == 6]
        p_points = sum(c.p_points for c in self.commands)
        evaluate = sum(c.p_points * c.n_qubits for c in self.commands)
        return {
            "cli.main.calls": len(self.commands),
            "states.white_noise_mix.calls": p_points,
            "monogamy.power_sweep.calls": p_points,
            "states.construct.calls": p_points + len(self.commands),
            "measures.evaluate.calls": evaluate,
            "tensor.partial_transpose.calls": evaluate,
            "tensor.partial_trace.calls": sum(c.p_points * (c.n_qubits - 1) for c in self.commands),
            "tensor.eig.d64.calls": sum(2 * c.p_points + 1 for c in six),
            "monogamy.monogamy_score.calls": 0,
            "measures.classical_correlation.calls": 0,
            "measures.discord.calls": 0,
            "measures.undefined.count": 0,
        }

    def warmup(self, out_dir: str) -> None:
        """One short sweep through the pool on a 6-qubit state."""
        cli.main(["sweep", "--measure", "negativity", "--state", "w6", "--p-grid", "0:1:3",
                  "--r-grid", "1,2", "--out", os.path.join(out_dir, "warmup.csv")])


# ---------------------------------------------------------------------------
# hill_climb
# ---------------------------------------------------------------------------

class HillClimb:
    """``verify.counterexample_search`` in the shape of acceptance criterion
    05: three calls of ``restarts`` climbs of ``max_steps`` steps each."""

    name = "hill_climb"
    probe = "serial"
    CALLS = (
        (Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2)),
        (Measure.CONCURRENCE, 2.0, (2, 2, 2)),
        (Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2, 2)),
    )

    def __init__(self, seed: int, restarts: int = 8, max_steps: int = 250):
        rng = random.Random(seed)
        self.restarts, self.max_steps = restarts, max_steps
        self.shape = {"restarts": restarts, "max_steps": max_steps}
        self.seeds = [rng.randrange(2**31) for _ in self.CALLS]

    @property
    def evals_per_restart(self) -> int:
        # the 1e-6 step floor needs over 300 rejections, so every climb of at
        # most 250 steps runs all of them, plus the starting evaluation
        return self.max_steps + 1

    @property
    def items(self) -> int:
        return len(self.CALLS) * self.restarts * self.evals_per_restart

    def run(self, out_dir: str, between=_nothing) -> list[dict]:
        return [
            _attempt(lambda: verify.counterexample_search(
                MeasureKind(tag), r, dims, self.restarts, s, self.max_steps).to_json(), between)
            for (tag, r, dims), s in zip(self.CALLS, self.seeds)
        ]

    def check(self, outputs: list[dict], out_dir: str) -> Checked:
        res = Checked(self.items, digest=_digest(outputs))
        per_restart = self.evals_per_restart
        for (tag, r, dims), s, out in zip(self.CALLS, self.seeds, outputs):
            kind = MeasureKind(tag)
            label = f"{tag.value} r={r:g} dims={dims}"
            if "error" in out:
                res.fail(label, self.restarts * per_restart, out["error"])
                continue
            bests = out["extra"]["restart_bests"]
            if len(bests) != self.restarts:
                res.fail(label, self.restarts * per_restart, f"{len(bests)} restarts")
                continue
            for i, b in enumerate(bests):
                rescored = monogamy.monogamy_score(kind, states.state_from_json(b["state"]), 0, r).score
                start = monogamy.monogamy_score(kind, states.haar_pure(dims, s, index=i), 0, r).score
                if not _close(rescored, b["score"]):
                    res.fail(f"{label} restart {i}", per_restart, f"best {b['score']!r} rescored {rescored!r}")
                elif b["score"] > start + TOL:
                    res.fail(f"{label} restart {i}", per_restart, f"best {b['score']!r} above start {start!r}")
            res.summary[label] = [b["score"] for b in bests]
        return res

    def compare_reference(self, summary: dict, ref: dict, res: Checked) -> int:
        """A climb that diverges from the reference is counted, not failed:
        accept/reject decisions amplify last-bit differences."""
        diverged = 0
        for label, got in summary.items():
            want = ref.get(label, [])
            diverged += sum(1 for i, g in enumerate(got) if i >= len(want) or not _close(g, want[i]))
        return diverged

    def expected_counts(self) -> dict:
        evals = self.restarts * self.evals_per_restart
        parties = [len(dims) for _, _, dims in self.CALLS]
        # concurrence on pure states: the whole cut by the pure-cut identity,
        # each two-qubit pair cut by the Wootters formula
        concurrence = [len(dims) for tag, _, dims in self.CALLS if tag is Measure.CONCURRENCE]
        return {
            "monogamy.monogamy_score.calls": len(self.CALLS) * evals,
            "states.construct.calls": len(self.CALLS) * self.restarts * (self.evals_per_restart + 1),
            "measures.evaluate.calls": evals * sum(parties),
            "measures.branch.wootters.calls": evals * sum(n - 1 for n in concurrence),
            "measures.branch.pure.calls": evals * len(concurrence),
            "measures.branch.roof2.calls": 0,
            "measures.undefined.count": 0,
            "cli.main.calls": 0,
            "tensor.eig.d64.calls": 0,
            "measures.classical_correlation.calls": 0,
        }

    def warmup(self, out_dir: str) -> None:
        for (tag, r, dims), s in zip(self.CALLS, self.seeds):
            verify.counterexample_search(MeasureKind(tag), r, dims, 1, s, 2)


# ---------------------------------------------------------------------------
# verify_ensembles
# ---------------------------------------------------------------------------

_CONC = MeasureKind(Measure.CONCURRENCE, True)


class VerifyEnsembles:
    """The sampled verification suites on seeded ensembles, plus
    ``monogamy.share_sum`` for discord and classical correlation."""

    name = "verify_ensembles"
    probe = "serial"

    def __init__(self, seed: int, pure3: int = 100, mixed3: int = 100, pure4: int = 30, share: int = 4):
        rng = random.Random(seed)
        self.shape = {"pure3": pure3, "mixed3": mixed3, "pure4": pure4, "share": share}
        s = functools.partial(rng.randrange, 2**31)  # draws one library seed
        haar3 = states.EnsembleSpec("haar_pure", (2, 2, 2), pure3)
        rank2 = states.EnsembleSpec("random_mixed", (2, 2, 2), pure3, ranks=(2,))
        induced = states.EnsembleSpec("random_mixed", (2, 2, 2), mixed3)
        haar4 = states.EnsembleSpec("haar_pure", (2, 2, 2, 2), pure4)
        # (label, suite function name, args before the seed, ensemble size, seed)
        self.suites = [
            ("raising-pure", "verify_raising", (_CONC, haar3, 2.0, (2.5, 3.0, 4.0)), pure3, s()),
            ("raising-rank2", "verify_raising", (_CONC, rank2, 2.0, (2.5, 3.0, 4.0)), pure3, s()),
            ("lowering", "verify_lowering", (Measure.LOG_NEGATIVITY, induced, 1.0, (0.5, 0.8)), mixed3, s()),
            ("mixed-lifting", "verify_mixed_lifting", (Measure.NEGATIVITY, induced), mixed3, s()),
            ("probe", "probe_high_power_mixed", ((2.0, 3.0, 4.0), induced), mixed3, s()),
            ("functional-pure", "verify_functional_lift", (haar3, 2.0), pure3, s()),
            ("functional-rank2", "verify_functional_lift", (rank2, 2.0), pure3, s()),
            ("strong", "verify_strong_chain", (_CONC, haar4, 2.0), pure4, s()),
            ("hierarchy", "verify_hierarchy_chain", (_CONC, haar4, 2.0), pure4, s()),
        ]
        self.share_spec = states.EnsembleSpec("random_mixed", (2, 2, 2), share)
        self.share_seed = s()
        self.share_kinds = (Measure.DISCORD, Measure.CLASSICAL_CORRELATION)

    @property
    def items(self) -> int:
        return sum(n for _, _, _, n, _ in self.suites) + len(self.share_kinds) * self.share_spec.count

    def run(self, out_dir: str, between=_nothing) -> dict:
        out = {label: _attempt(lambda: getattr(verify, fn)(*args, seed).to_json(), between)
               for label, fn, args, _, seed in self.suites}
        ensemble = _attempt(lambda: states.sample_states(self.share_spec, self.share_seed), between)
        for tag in self.share_kinds:
            out[f"share-{tag.value}"] = (
                [_attempt(lambda: monogamy.share_sum(tag, st, 0), between) for st in ensemble]
                if isinstance(ensemble, list) else ensemble
            )
        return out

    def check(self, out: dict, out_dir: str) -> Checked:
        res = Checked(self.items, digest=_digest(out))
        for label, _, _, n, _ in self.suites:
            s = out[label]
            if "error" in s:
                res.fail(label, n, s["error"])
                continue
            if s["count"] != n:
                res.fail(label, n, f"suite counted {s['count']} states, ensemble has {n}")
            res.summary[label] = [s["count"], s["passes"], s["skipped"], s["violations"], s["worst_margin"]]
        n_parts = len(self.share_spec.dims) - 1
        for tag in self.share_kinds:
            key = f"share-{tag.value}"
            vals = out[key]
            if not isinstance(vals, list) or len(vals) != self.share_spec.count:
                res.fail(key, self.share_spec.count, str(vals if isinstance(vals, dict) else len(vals)))
                continue
            bad = [v for v in vals
                   if not (isinstance(v, float) and math.isfinite(v) and -TOL <= v <= n_parts + TOL)]
            if bad:
                res.fail(key, len(bad), f"values outside [0, {n_parts}]: {bad[:3]}")
            res.summary[key] = list(vals)
        return res

    def compare_reference(self, summary: dict, ref: dict, res: Checked) -> int:
        sizes = {label: n for label, _, _, n, _ in self.suites}
        for key, got in summary.items():
            want = ref.get(key)
            if want is None or len(got) != len(want) or not all(map(_close, got, want)):
                res.fail(key, sizes.get(key, len(got)), "outputs differ from the recorded reference")
        return 0

    def expected_counts(self) -> dict:
        share = self.share_spec.count
        pure4 = self.shape["pure4"]
        pairs = len(self.share_spec.dims) - 1
        return {
            "monogamy.share_sum.calls": len(self.share_kinds) * share,
            "measures.discord.calls": pairs * share,
            # discord runs the classical-correlation optimizer once per pair
            "measures.classical_correlation.calls": 2 * pairs * share,
            "monogamy.strong_monogamy_report.calls": pure4,
            "monogamy.monogamy_score.calls": pure4,
            "monogamy.hierarchy_chain.calls": pure4,
            "cli.main.calls": 0,
            "tensor.eig.d64.calls": 0,
            "measures.undefined.count": 0,
        }

    def warmup(self, out_dir: str) -> None:
        """Every suite and both share sums on one state each."""
        small = VerifyEnsembles(0, pure3=1, mixed3=1, pure4=1, share=1)
        small.run(out_dir)


WORKLOADS = {w.name: w for w in (NoiseSweep, HillClimb, VerifyEnsembles)}
