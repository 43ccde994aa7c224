"""Command-line surface: noise/exponent sweeps, critical-exponent search,
theorem verification suites, figure-data reproduction, and state export.

Exit codes: 0 success, 2 configuration error (a state too large to
allocate among them), 3 measure undefined on a requested cut, 4 no sign
change inside a critical-exponent bracket, 5 a verification suite found
violations. CSV output uses 17-significant-digit floats so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable

from . import __version__, measures, monogamy, states, verify
from .measures import MeasureKind, MeasureUndefinedError
from .monogamy import BracketError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MEASURE = 3
EXIT_BRACKET = 4
EXIT_VIOLATION = 5

# Grids used by the figure reproductions. The plot ranges come from the
# figures themselves; the sampling densities are a recorded choice.
FIGURE_P_GRID = tuple(i / 50.0 for i in range(51))  # p in [0, 1], step 0.02
FIGURE_R_GRID = tuple(1.0 + 0.002 * i for i in range(101))  # r in [1, 1.2]


@dataclass(frozen=True)
class RunConfig:
    """Echo of one CLI invocation, embedded in JSON outputs for provenance."""

    command: str
    measure: str | None = None
    normalized: bool = False
    state: str | None = None
    state_file: str | None = None
    dims: tuple[int, ...] | None = None
    rank: int | None = None
    focus: int = 0
    r: float | None = None
    r_grid: tuple[float, ...] | None = None
    p_grid: tuple[float, ...] | None = None
    bracket: tuple[float, float] | None = None
    tol: float = 1e-4
    alpha: tuple[float, ...] | None = None
    seed: int = 0
    count: int = 100
    samples: int = 1_000_000
    theorem: str | None = None
    figure: int | str | None = None  # "1".."3" or "all" as parsed; an int once written
    out: str | None = None
    fmt: str = "csv"

    def provenance(self) -> dict:
        cfg = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(self).items()
            if v is not None
        }
        return {"artifact": "monolab", "version": __version__, "config": cfg}


# Value parsers for argparse's type=; argparse names the flag in the message.

def _parse_floats(text: str) -> tuple[float, ...]:
    """A comma list, every item a float, or lo:hi:num for num >= 1 evenly
    spaced points from lo to hi. A zero is +0.0, so no output writes -0."""
    text = text.strip()
    try:
        if ":" not in text:
            # an empty item fails; -0.0 + 0.0 is 0.0
            return tuple(float(x) + 0.0 for x in text.split(","))
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo) + 0.0, float(hi), int(num)
        if num < 1:
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc
    return (lo,) if num == 1 else tuple(lo + (hi - lo) * i / (num - 1) for i in range(num))


def _parse_grid(text: str) -> tuple[float, ...]:
    grid = _parse_floats(text)
    if list(grid) != sorted(grid):
        raise argparse.ArgumentTypeError("must be sorted ascending")
    return grid


def _parse_dims(text: str) -> tuple[int, ...]:
    """A comma list of ints; the library's dims rule checks each (>= 2)."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc


def _measure_kind(cfg: RunConfig) -> MeasureKind:
    return MeasureKind(measures.Measure.from_string(cfg.measure), cfg.normalized)


def _check_random_flags(cfg: RunConfig, source: str) -> None:
    """--dims goes with random-pure and random-mixed only, --rank with random-mixed."""
    if cfg.dims is not None and source not in ("random-pure", "random-mixed"):
        raise ValueError(f"--dims applies to random-pure or random-mixed only, not {source}")
    if cfg.rank is not None and source != "random-mixed":
        raise ValueError(f"--rank applies to random-mixed only, not {source}")


def _resolve_state(cfg: RunConfig) -> states.MultipartiteState:
    if (cfg.state is None) == (cfg.state_file is None):
        raise ValueError("exactly one of --state or --state-file is required")
    name = "--state-file" if cfg.state is None else cfg.state.strip().lower()
    _check_random_flags(cfg, name)
    if cfg.state_file is not None:
        try:
            return states.load_state(cfg.state_file)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cannot load state file {cfg.state_file}: {exc}") from exc
    dims = cfg.dims or (2, 2, 2)
    if name == "random-pure":
        return states.haar_pure(dims, cfg.seed)
    if name == "random-mixed":
        return states.random_mixed(dims, math.prod(dims) if cfg.rank is None else cfg.rank, cfg.seed)
    return states.named_state(name)


def _resolve_ensemble(cfg: RunConfig, default: str = "random-pure") -> states.EnsembleSpec:
    name = (cfg.state or default).strip().lower()
    _check_random_flags(cfg, name)
    if name == "random-pure":
        return states.EnsembleSpec("haar_pure", cfg.dims, cfg.count, p_grid=cfg.p_grid)
    if name == "random-mixed":
        ranks = None if cfg.rank is None else (cfg.rank,)
        return states.EnsembleSpec(
            "random_mixed", cfg.dims, cfg.count, ranks=ranks, p_grid=cfg.p_grid
        )
    return states.EnsembleSpec("named", name=name, p_grid=cfg.p_grid)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc


def _write_json(path: str | None, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(path: str | None) -> str:
    """The directory an ``all`` target writes into: --out, created if absent,
    or the working directory ("") when --out is not given."""
    if path is None:
        return ""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file, or is empty
        raise ValueError(f"cannot create directory {path!r}: {exc}") from exc
    return path


def _sweep_rows(kind: MeasureKind, base: states.MultipartiteState, focus: int,
                p_grid, r_grid) -> list[dict]:
    rows = []
    for p in p_grid:
        mixed = states.white_noise_mix(base, p)
        for rep in monogamy.power_sweep(kind, mixed, focus, r_grid):
            rows.append(
                {
                    "p": p,
                    "r": rep.exponent,
                    "measure": kind.label(),
                    "whole": rep.whole,
                    "parts": rep.parts,
                    "delta": rep.score,
                }
            )
    return rows


def _rows_to_csv(rows: list[dict], n_parts: int) -> str:
    header = ["p", "r", "measure", "whole"]
    header += [f"part_{i + 1}" for i in range(n_parts)]
    header += ["delta"]
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row["p"]), _fmt(row["r"]), row["measure"], _fmt(row["whole"])]
        cells += [_fmt(v) for v in row["parts"]]
        cells += [_fmt(row["delta"])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _rows_to_json(rows: list[dict], cfg: RunConfig) -> dict:
    return {
        "provenance": cfg.provenance(),
        "rows": [dict(row, parts=list(row["parts"])) for row in rows],
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig) -> int:
    kind = _measure_kind(cfg)
    base = _resolve_state(cfg)
    rows = _sweep_rows(kind, base, cfg.focus, cfg.p_grid, cfg.r_grid)
    n_parts = base.n_subsystems - 1
    if cfg.fmt == "csv":
        _write_text(cfg.out, _rows_to_csv(rows, n_parts))
    else:
        _write_json(cfg.out, _rows_to_json(rows, cfg))
    return EXIT_OK


def cmd_rstar(cfg: RunConfig) -> int:
    kind = _measure_kind(cfg)
    state = _resolve_state(cfg)
    result = monogamy.critical_exponent(kind, state, cfg.focus, cfg.bracket, cfg.tol)
    if cfg.fmt == "json":
        _write_json(
            cfg.out,
            {
                "provenance": cfg.provenance(),
                "r_star": result.r_star,
                "bracket": list(result.bracket),
                "tol": result.tol,
                "score_lo": result.score_lo,
                "score_hi": result.score_hi,
                "trace": [{"r": r, "score": sc} for r, sc in result.steps],
            },
        )
    else:
        text = (
            f"r_star = {_fmt(result.r_star)}\n"
            f"delta({_fmt(result.bracket[0])}) = {_fmt(result.score_lo)}\n"
            f"delta({_fmt(result.bracket[1])}) = {_fmt(result.score_hi)}\n"
        )
        _write_text(cfg.out, text)
    return EXIT_OK


@dataclass(frozen=True)
class _Suite:
    """How ``verify <tag>`` runs. ``run(cfg, kind, r)`` calls the library
    suite, named through its module so that it is looked up at call time;
    ``kind`` is --measure or the default ``measure``, and ``r`` is --r or the
    default ``r``. ``reads`` lists the flags the tag uses besides --seed and
    --out (a tag that reads --measure also reads --normalized); the tag's
    parser declares only those, so argparse rejects any other."""

    run: Callable[..., verify.VerificationSummary]
    reads: tuple[str, ...] = ()
    measure: MeasureKind | None = None
    r: float | None = None


_ENSEMBLE = ("p_grid", "count", "state", "dims", "rank")  # read by _resolve_ensemble
_CONCURRENCE = MeasureKind(measures.Measure.CONCURRENCE, True)
_NEGATIVITY = MeasureKind(measures.Measure.NEGATIVITY, True)


def _alpha(cfg: RunConfig) -> float:
    """The single target exponent of functional, strong and hierarchy."""
    if cfg.alpha is None:
        return 2.0
    if len(cfg.alpha) != 1:
        raise ValueError(f"verify {cfg.theorem} takes one --alpha value, got {len(cfg.alpha)}")
    return cfg.alpha[0]


_SUITES = {
    "lemmas": _Suite(
        lambda cfg, kind, r: verify.check_scalar_lemmas(cfg.samples, cfg.seed), ("samples",)
    ),
    "decreasing-concave": _Suite(
        lambda cfg, kind, r: verify.check_decreasing_concave_family(cfg.samples, cfg.seed),
        ("samples",),
    ),
    "raising": _Suite(
        lambda cfg, kind, r: verify.verify_raising(
            kind, _resolve_ensemble(cfg), r, cfg.alpha or (r + 0.5, r + 1.0, 2.0 * r), cfg.seed
        ),
        ("measure", "r", "alpha", *_ENSEMBLE), _CONCURRENCE, 2.0,
    ),
    "lowering": _Suite(
        lambda cfg, kind, r: verify.verify_lowering(
            kind, _resolve_ensemble(cfg), r, cfg.alpha or (0.5 * r, 0.8 * r), cfg.seed
        ),
        ("measure", "r", "alpha", *_ENSEMBLE),
        MeasureKind(measures.Measure.LOG_NEGATIVITY, True), 1.0,
    ),
    "functional": _Suite(
        lambda cfg, kind, r: verify.verify_functional_lift(
            _resolve_ensemble(cfg), _alpha(cfg), cfg.seed
        ),
        ("alpha", *_ENSEMBLE),
    ),
    "mixed": _Suite(
        lambda cfg, kind, r: verify.verify_mixed_lifting(
            kind, _resolve_ensemble(cfg, "random-mixed"), cfg.seed
        ),
        ("measure", *_ENSEMBLE), _NEGATIVITY,
    ),
    "strong": _Suite(
        lambda cfg, kind, r: verify.verify_strong_chain(
            kind, _resolve_ensemble(cfg), _alpha(cfg), cfg.seed, cfg.focus
        ),
        ("measure", "alpha", "focus", *_ENSEMBLE), _CONCURRENCE,
    ),
    "hierarchy": _Suite(
        lambda cfg, kind, r: verify.verify_hierarchy_chain(
            kind, _resolve_ensemble(cfg), _alpha(cfg), cfg.seed, cfg.focus
        ),
        ("measure", "alpha", "focus", *_ENSEMBLE), _CONCURRENCE,
    ),
    "probe-high-power": _Suite(
        lambda cfg, kind, r: verify.probe_high_power_mixed(
            cfg.r_grid or (2.0, 3.0, 4.0), _resolve_ensemble(cfg, "random-mixed"), cfg.seed, kind
        ),
        ("measure", "r_grid", *_ENSEMBLE), _NEGATIVITY,
    ),
    "search": _Suite(
        lambda cfg, kind, r: verify.counterexample_search(
            kind, r, cfg.dims or (2, 2, 2), cfg.count, cfg.seed
        ),
        ("measure", "r", "count", "dims"), MeasureKind(measures.Measure.LOG_NEGATIVITY), 1.0,
    ),
}


def cmd_verify(cfg: RunConfig) -> int:
    """``verify all`` runs every tag with its defaults into DIR/<tag>.json,
    each file as ``verify <tag> --seed S --out DIR/<tag>.json`` writes it."""
    if cfg.theorem == "all":
        states.generator(cfg.seed)  # a bad --seed fails before the directory is made
        out_dir = _out_dir(cfg.out)
        codes = [cmd_verify(replace(cfg, theorem=tag, out=os.path.join(out_dir, f"{tag}.json")))
                 for tag in _SUITES]
        return max(codes)  # EXIT_VIOLATION if any suite counted violations
    suite = _SUITES[cfg.theorem]
    kind = suite.measure if cfg.measure is None else _measure_kind(cfg)
    r = suite.r if cfg.r is None else cfg.r
    summary = suite.run(cfg, kind, r)
    _write_json(cfg.out, {"provenance": cfg.provenance(), "summary": summary.to_json()})
    return EXIT_OK if summary.ok else EXIT_VIOLATION  # exploratory suites never count violations


_NEGATIVITIES = (measures.Measure.NEGATIVITY, measures.Measure.LOG_NEGATIVITY)
# The paper's three figures, each (state, measures, the one grid it scans,
# the axis it holds fixed as its sidecar records it): figures 1-2 scan p at
# r = 1 and 2, figure 3 scans r at p = 0. A figure reads only the flag of its
# scanned grid, else that grid's default; ``figure all`` reads neither.
_FIGURES = {
    "1": ("ghz3", _NEGATIVITIES, "p_grid", {"r_values": (1.0, 2.0)}),
    "2": ("w3", _NEGATIVITIES, "p_grid", {"r_values": (1.0, 2.0)}),
    "3": ("w3", _NEGATIVITIES[1:], "r_grid", {"p": 0.0}),
}
_FIGURE_DEFAULTS = {"p_grid": FIGURE_P_GRID, "r_grid": FIGURE_R_GRID}


def cmd_figure(cfg: RunConfig) -> int:
    """``figure all`` writes DIR/figureN.csv and its sidecar for N = 1, 2, 3,
    each file as ``figure N --out DIR/figureN.csv`` writes it."""
    name, tags, scans, held = _FIGURES.get(cfg.figure, (None, (), None, {}))
    for grid in ("p_grid", "r_grid"):
        if grid != scans and getattr(cfg, grid) is not None:
            raise ValueError(f"figure {cfg.figure} does not read --{grid.replace('_', '-')}")
    if cfg.figure == "all":
        # every figure's state has 3 qubits: a bad --focus fails before the directory is made
        monogamy._monogamy_cuts(3, cfg.focus)
        out_dir = _out_dir(cfg.out)
        for n in _FIGURES:
            cmd_figure(replace(cfg, figure=n, out=os.path.join(out_dir, f"figure{n}.csv")))
        return EXIT_OK
    cfg = replace(cfg, figure=int(cfg.figure))  # the provenance records the figure as a number
    out = f"figure{cfg.figure}.csv" if cfg.out is None else cfg.out
    grids = {scans: getattr(cfg, scans) or _FIGURE_DEFAULTS[scans], **held}
    p_grid = grids.get("p_grid", (grids.get("p"),))  # a held p is one weight
    r_grid = grids.get("r_grid", grids.get("r_values"))
    base = states.named_state(name)
    rows = [row for tag in tags
            for row in _sweep_rows(MeasureKind(tag), base, cfg.focus, p_grid, r_grid)]
    _write_text(out, _rows_to_csv(rows, base.n_subsystems - 1))
    sidecar = {
        "figure": cfg.figure,
        "state": name,
        "conventions": {
            "negativity_normalized": False,
            "log_base": 2,
            "score": "whole^r - sum_j part_j^r",
        },
        "grids": grids,
        "provenance": cfg.provenance(),
    }
    meta_path = os.path.splitext(out)[0] + ".meta.json"
    _write_json(meta_path, sidecar)
    return EXIT_OK


def cmd_state_export(cfg: RunConfig) -> int:
    _write_json(cfg.out, states.state_to_json(_resolve_state(cfg)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Each flag's add_argument options, declared once and keyed by its dest. No
# flag declares a default: an absent flag stays None, so RunConfig's applies.
_FLAGS = {
    "measure": dict(help="correlation measure, e.g. negativity, lognegativity, concurrence"),
    "normalized": dict(action="store_true", help="use the normalized variant of --measure"),
    "r": dict(type=float, help="hypothesis exponent"),
    "r_grid": dict(type=_parse_grid, help="exponents, e.g. 1,2 or 1:2:11"),
    "p_grid": dict(type=_parse_grid, help="white-noise weights, e.g. 0:1:51"),
    "bracket": dict(type=_parse_floats, help="exponent window lo,hi that must hold the crossing"),
    "tol": dict(type=float, help="tolerance, checked and recorded; r* is the exact root (default 1e-4)"),
    "alpha": dict(type=_parse_floats, help="target exponent(s), e.g. 2 or 2.5,3,4"),
    "count": dict(type=int, help="ensemble size / search restarts (default 100)"),
    "samples": dict(type=int, help="scalar-lemma draws"),
    "state": dict(help="named state (ghzN, wN, classical) or random-pure/random-mixed"),
    "state_file": dict(help="JSON state file {dims, rho_re, rho_im}"),
    "dims": dict(type=_parse_dims, help="subsystem dimensions of a random state, e.g. 2,2,2"),
    "rank": dict(type=int, help="rank for random-mixed states"),
    "focus": dict(type=int, help="focus subsystem index (default 0)"),
    "seed": dict(type=int, help="ensemble seed (default 0)"),
    "out": dict(help="output path (default stdout; figureN.csv plus .meta.json for figure N); "
                "for figure all and verify all, the directory to write into, created if "
                "absent (default: the working directory)"),
}
_STATE = ("state", "state_file", "dims", "rank", "seed", "out")


def _add_flags(p: argparse.ArgumentParser, names, required=()) -> None:
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), required=name in required, **_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a flag a command lacks, such as --r, would be read as --rank
    new = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = new(
        prog="monolab",
        description="Monogamy scores, critical exponents, and verification suites "
        "for bipartite quantum-correlation measures.",
    )
    parser.add_argument("--version", action="version", version=f"monolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new)

    p = sub.add_parser("sweep", help="monogamy scores over a noise and exponent grid")
    _add_flags(p, ("measure", "normalized", "r_grid", "p_grid", "focus", *_STATE),
               required=("measure", "r_grid", "p_grid"))
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    p = sub.add_parser("rstar", help="the critical exponent where the monogamy score crosses zero")
    _add_flags(p, ("measure", "normalized", "bracket", "tol", "focus", *_STATE),
               required=("measure", "bracket"))
    p.add_argument("--format", dest="fmt", choices=("json",), help="JSON instead of text")

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(fmt="json")  # summaries are always JSON
    tags = p.add_subparsers(dest="theorem", required=True, parser_class=new)
    for tag, suite in _SUITES.items():
        normalized = ("normalized",) if "measure" in suite.reads else ()
        _add_flags(tags.add_parser(tag), (*suite.reads, *normalized, "seed", "out"))
    _add_flags(tags.add_parser("all", help="every tag with its defaults, one JSON file each"),
               ("seed", "out"))

    p = sub.add_parser("figure", help="emit the data grid behind one or all of the figures")
    p.add_argument("figure", choices=(*_FIGURES, "all"))
    _add_flags(p, ("p_grid", "r_grid", "focus", "out"))

    _add_flags(sub.add_parser("state-export", help="write a state as a JSON file"), _STATE)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {name: value for name, value in vars(args).items() if value is not None}
    # a named ensemble holds one state: --count, unlike --dims and --rank,
    # has a default, so only the parsed flags show whether it was given
    state = given.get("state", "random-pure").strip().lower()
    if "count" in given and state not in ("random-pure", "random-mixed"):
        raise ValueError(f"--count applies to random-pure or random-mixed only, not {state}")
    return RunConfig(**given)


_COMMANDS = {
    "sweep": cmd_sweep,
    "rstar": cmd_rstar,
    "verify": cmd_verify,
    "figure": cmd_figure,
    "state-export": cmd_state_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for parse errors
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except ValueError as exc:  # config, library argument, measure and bracket errors
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MeasureUndefinedError):
            return EXIT_MEASURE
        return EXIT_BRACKET if isinstance(exc, BracketError) else EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the size, e.g. w40's 16 TiB vector
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
