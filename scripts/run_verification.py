#!/usr/bin/env python3
"""Run the full verification battery and write one JSON summary per suite.

Usage:
    python scripts/run_verification.py --outdir results/verify --seed 0

Larger --count / --samples values tighten the sampling at the cost of
runtime; defaults finish in well under a minute.

Exit codes, as for the monolab CLI: 0 every suite passed, 2 bad arguments
(including --count or --samples below 1, or an --outdir that cannot be
created as a directory), 5 some suite counted violations.
"""

import argparse
import json
import os
import sys

from monolab.measures import Measure, MeasureKind
from monolab.states import EnsembleSpec
from monolab import cli, verify


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="verification", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=positive_int, default=300, help="states per ensemble")
    parser.add_argument("--samples", type=positive_int, default=1_000_000,
                        help="scalar-lemma draws")
    args = parser.parse_args()
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:  # e.g. --outdir names an existing file
        parser.error(f"argument --outdir: cannot create directory {args.outdir!r}: {exc}")

    pure3 = EnsembleSpec("haar_pure", (2, 2, 2), args.count)
    pure4 = EnsembleSpec("haar_pure", (2, 2, 2, 2), max(args.count // 4, 20))
    mixed3 = EnsembleSpec("random_mixed", (2, 2, 2), args.count)
    mixed_rank2 = EnsembleSpec("random_mixed", (2, 2, 2), args.count, ranks=(2,))
    conc = MeasureKind(Measure.CONCURRENCE, normalized=True)

    suites = {
        "lemmas": lambda: verify.check_scalar_lemmas(args.samples, args.seed),
        "decreasing_concave": lambda: verify.check_decreasing_concave_family(
            args.samples, args.seed
        ),
        "raising": lambda: verify.verify_raising(
            conc, pure3, 2.0, (2.5, 3.0, 4.0), args.seed
        ),
        "lowering": lambda: verify.verify_lowering(
            Measure.LOG_NEGATIVITY, EnsembleSpec("named", count=1, name="w3"), 1.0, (0.5, 0.8),
            args.seed,
        ),
        "functional": lambda: verify.verify_functional_lift(pure3, 2.0, args.seed),
        "functional_mixed": lambda: verify.verify_functional_lift(
            mixed_rank2, 2.0, args.seed
        ),
        "mixed": lambda: verify.verify_mixed_lifting(Measure.NEGATIVITY, mixed3, args.seed),
        "strong": lambda: verify.verify_strong_chain(conc, pure4, 2.0, args.seed),
        "hierarchy": lambda: verify.verify_hierarchy_chain(conc, pure4, 2.0, args.seed),
        "probe_high_power": lambda: verify.probe_high_power_mixed(
            (2.0, 3.0, 4.0), mixed3, args.seed
        ),
        "search_logneg": lambda: verify.counterexample_search(
            Measure.LOG_NEGATIVITY, 1.0, (2, 2, 2), restarts=30, seed=args.seed
        ),
        "search_tangle": lambda: verify.counterexample_search(
            Measure.CONCURRENCE, 2.0, (2, 2, 2), restarts=30, seed=args.seed
        ),
    }

    failures = 0
    width = max(map(len, suites))
    for name, runner in suites.items():
        summary = runner()
        path = os.path.join(args.outdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(summary.to_json(), f, indent=2, sort_keys=True)
        status = "ok" if summary.ok else "VIOLATIONS"
        print(
            f"{name:<{width}}  {status:<10}  count={summary.count:<6d} "
            f"skipped={summary.skipped:<4d} worst={summary.worst_margin:+.3e}"
        )
        if not summary.ok:  # exploratory suites never count violations
            failures += 1
    return cli.EXIT_VIOLATION if failures else cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
