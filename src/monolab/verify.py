"""Sampling-based verification of the monogamy machinery.

Each suite walks a seeded ensemble, checks the relevant inequality with the
package-wide tolerance (slack >= -1e-9 for state-level checks, -1e-12 for
scalar lemmas), and reports a VerificationSummary. Violations are reported,
never thrown; the worst (most negative) slack and the first worst offending
state are kept so a reported failure can be reproduced from its JSON alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .measures import (
    Measure,
    MeasureKind,
    _normalized,
    _pure_cut_entropy,
    _score_stack,
    as_kind,
    eof_from_concurrence,
)
from .monogamy import (_base_values_stack, _cut_table, _delta, _focus_cuts, _hierarchy_alpha, _strong_alpha,
                       hierarchy_chain, monogamy_score, strong_monogamy_report)
from .monogamy import base_values  # noqa: F401  perfbench's tracer test rebinds it here
from .states import (
    EnsembleSpec,
    MultipartiteState,
    _normal,
    _seed,
    generator,
    haar_vector,
    sample_states,
    state_to_json,
)
from .tensor import _dims, _integer, _real, _reals

STATE_TOL = 1e-9
SCALAR_TOL = 1e-12


@dataclass
class VerificationSummary:
    """Per-suite pass/fail statistics over a sampled ensemble."""

    theorem: str
    ensemble: dict
    count: int = 0
    passes: int = 0
    skipped: int = 0
    violations: int = 0
    worst_margin: float = math.inf
    offender: dict | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def _finalize(self) -> "VerificationSummary":
        self.passes = self.count - self.skipped - self.violations
        if not math.isfinite(self.worst_margin):
            self.worst_margin = 0.0
        return self

    def to_json(self) -> dict:
        return asdict(self)


def _run_suite(theorem: str, ensemble, seed: int, extra: dict, slacks_fn,
               tol: float = STATE_TOL) -> VerificationSummary:
    """Score every state of the ensemble (an EnsembleSpec sampled with
    ``seed``, or explicit states) with ``slacks_fn`` and tally the result.

    ``slacks_fn(states)`` returns one slack per state, in order: the state's
    slack, or None when the state does not meet the suite's hypothesis
    (counted as skipped). Taking the whole list lets a suite score each cut
    of the ensemble in one stacked call. The most negative slack becomes the
    worst margin; a slack below -tol is a violation, and the first state
    reaching the worst margin is reported as the offender when there is any.
    ``extra`` becomes the summary's extra as is, so ``slacks_fn`` may keep
    counters in it. Exploratory suites pass ``tol = math.inf`` and so never
    count a violation.
    """
    seed = _seed(seed)
    if isinstance(ensemble, EnsembleSpec):
        desc, states = ensemble.describe(), sample_states(ensemble, seed)
    else:
        states = list(ensemble)
        desc = {"family": "explicit", "count": len(states),
                "dims": list(states[0].dims) if states else []}
    desc["seed"] = seed
    summary = VerificationSummary(theorem, desc, extra=extra)
    worst_state = None
    for state, slack in zip(states, slacks_fn(states)):
        summary.count += 1
        if slack is None:
            summary.skipped += 1
            continue
        if slack < summary.worst_margin:
            summary.worst_margin = slack
            worst_state = state
        if slack < -tol:
            summary.violations += 1
    if summary.violations:
        summary.offender = state_to_json(worst_state)
    return summary._finalize()


# ---------------------------------------------------------------------------
# scalar proof lemmas
# ---------------------------------------------------------------------------

def _scalar_audit(theorem: str, samples: int, seed: int):
    """The empty summary of a scalar audit, its sample count and its generator."""
    samples = _integer(samples, "samples must be >= 1 and an integer", 1)
    seed = _seed(seed)
    summary = VerificationSummary(theorem, {"samples": samples, "seed": seed})
    return summary, samples, generator(seed)


def _tally(summary: VerificationSummary, slack: np.ndarray) -> dict:
    """Add an array of scalar slacks to the summary; returns its worst margin
    and its violation count."""
    worst = float(slack.min())
    violations = int((slack < -SCALAR_TOL).sum())
    summary.count += len(slack)
    summary.violations += violations
    summary.worst_margin = min(summary.worst_margin, worst)
    return {"worst_margin": worst, "violations": violations}


def check_scalar_lemmas(samples: int, seed: int) -> VerificationSummary:
    """Random audit of the scalar inequalities behind the power theorems.

    Families (drawn uniformly on their stated domains, sampling windows
    t in [1, 5], s - t in [0, 4], x in (0, 10] for the lowering lemma,
    vectors of length 4 in [0, 1]):

      1. (1+x)^t >= 1 + x^t          for 0 <= x <= 1, t >= 1
      2. (sum x_i^t)^(s/t) >= sum x_i^s   for 0 <= x_i <= 1, s >= t >= 1
      3. (1+x)^t <= 1 + x^t          for x > 0, t <= 1
      4. sum a_i b_i <= sqrt(sum a_i^2 sum b_i^2)   (Cauchy-Schwarz)
    """
    summary, samples, rng = _scalar_audit("scalar-lemmas", samples, seed)
    extra = summary.extra

    x = rng.random(samples)
    t = 1.0 + 4.0 * rng.random(samples)
    extra["raise_binomial"] = _tally(summary, (1.0 + x) ** t - (1.0 + x**t))

    xs = rng.random((samples, 4))
    t = 1.0 + 4.0 * rng.random(samples)
    s = t + 4.0 * rng.random(samples)
    slack = (xs**t[:, None]).sum(axis=1) ** (s / t) - (xs ** s[:, None]).sum(axis=1)
    extra["raise_power_sum"] = _tally(summary, slack)

    x = 10.0 * (1.0 - rng.random(samples))  # in (0, 10]
    t = 1.0 - rng.random(samples)  # in (0, 1]
    extra["lower_binomial"] = _tally(summary, (1.0 + x**t) - (1.0 + x) ** t)

    a = rng.random((samples, 4))
    b = rng.random((samples, 4))
    slack = np.sqrt((a**2).sum(axis=1) * (b**2).sum(axis=1)) - (a * b).sum(axis=1)
    extra["cauchy_schwarz"] = _tally(summary, slack)
    return summary._finalize()


def check_decreasing_concave_family(samples: int, seed: int) -> VerificationSummary:
    """Random audit of the reversed functional transfer for decreasing concave
    maps, on the synthetic family f(x) = 1 - x^c with c >= 1.

    Given a monogamous configuration w >= sum x_j (all in [0, 1]), the claim
    checked on the sampled domain is f(w)^m <= sum f(x_j)^m. The companion
    side condition f^m(sum x_j) >= sum f^m(x_j) is tabulated but not
    asserted, since it fails on most of the domain.
    """
    summary, samples, rng = _scalar_audit("decreasing-concave-family", samples, seed)
    w = rng.random(samples)
    raw = rng.random((samples, 3))
    scale = w * rng.random(samples) / np.maximum(raw.sum(axis=1), 1e-300)
    xs = raw * scale[:, None]  # sum_j x_j <= w by construction
    c = 1.0 + 3.0 * rng.random(samples)
    m = 1.0 + 2.0 * rng.random(samples)

    f_w = 1.0 - w**c
    f_xs = 1.0 - xs ** c[:, None]
    slack = (f_xs ** m[:, None]).sum(axis=1) - f_w**m
    side = (1.0 - xs.sum(axis=1) ** c) ** m - (f_xs ** m[:, None]).sum(axis=1)

    _tally(summary, slack)
    summary.extra["side_condition_holds_fraction"] = float((side >= -SCALAR_TOL).mean())
    return summary._finalize()


# ---------------------------------------------------------------------------
# power raising / lowering transfer
# ---------------------------------------------------------------------------

def _measure_extra(kind: MeasureKind) -> dict:
    """The measure a suite ran, as recorded in its summary's extra."""
    return {"measure": kind.label(), "normalized": kind.normalized}


def _base_slacks(kind: MeasureKind, slack):
    """A ``slacks_fn`` applying ``slack(whole, parts)`` to each state's base
    values at focus 0, each cut scored once for the whole ensemble."""
    return lambda states: [slack(whole, parts) for whole, parts in _base_values_stack(kind, states, 0)]


def _transfer(theorem: str, sign: float, kind: MeasureKind, ensemble, r: float,
              alphas: tuple[float, ...], seed: int) -> VerificationSummary:
    """Raising (sign +1) and lowering (sign -1): a state with sign * delta(r) >= -1e-9
    must keep sign * delta(alpha) >= -1e-9 at every alpha; others are skipped."""

    def slack(whole, parts):
        if sign * _delta(whole, parts, r) < -STATE_TOL:
            return None
        # + 0.0 makes a negated zero score 0.0, not -0.0, in the summary
        return min(sign * _delta(whole, parts, a) for a in alphas) + 0.0

    return _run_suite(theorem, ensemble, seed,
                      dict(_measure_extra(kind), r=r, alphas=list(alphas)),
                      _base_slacks(kind, slack))


def verify_raising(kind, ensemble, r: float, alphas, seed: int) -> VerificationSummary:
    """States monogamous at exponent r must stay monogamous at every alpha >= r.

    The measure is coerced to its normalized variant so values lie in [0, 1].
    States with delta(r) < -1e-9 do not satisfy the hypothesis and are
    counted as skipped.
    """
    kind, r = _normalized(kind), _real(r, "r")
    alphas = _reals(alphas, "alpha", r, closed=True)
    return _transfer("power-raising", 1.0, kind, ensemble, r, alphas, seed)


def verify_lowering(kind, ensemble, r: float, alphas, seed: int) -> VerificationSummary:
    """States non-monogamous at exponent r must stay so at every alpha <= r.

    Slack here is sum_j Q^alpha_j - Q^alpha(whole); states with
    delta(r) > 1e-9 are skipped (hypothesis not met).
    """
    kind, r = _normalized(kind), _real(r, "r")
    alphas = _reals(alphas, "alpha", hi=r)
    return _transfer("power-lowering", -1.0, kind, ensemble, r, alphas, seed)


# ---------------------------------------------------------------------------
# functional lift (squared entanglement of formation)
# ---------------------------------------------------------------------------

def verify_functional_lift(ensemble, m: float, seed: int) -> VerificationSummary:
    """Monotone-convex transfer instantiated for squared entanglement of
    formation built on squared concurrence.

    For pure states the full score E^m(whole) - sum_j E^m(pair_j) is
    asserted (whole-cut E is the entanglement entropy). Mixed states have no
    exact whole-cut E, so only the scalar side condition
    E(sqrt(sum c_j^2))^m >= sum E(c_j)^m on the sampled pair concurrences is
    asserted for them; configurations with sum c_j^2 > 1 are flagged as out
    of range rather than failed. Every state must have two or more parties,
    all qubits.
    """
    m = _real(m, "m")
    extra = {"m": m, "out_of_range": 0, "mixed_restricted": 0}
    concurrence = functools.partial(_score_stack, MeasureKind(Measure.CONCURRENCE))

    def slack(cs, whole):
        eofs = [eof_from_concurrence(c) for c in cs]
        slacks = []
        if whole is not None:
            slacks.append(_delta(whole, eofs, m))
        else:
            extra["mixed_restricted"] += 1
        y = math.fsum(c * c for c in cs)
        if y <= 1.0 + SCALAR_TOL:
            slacks.append(_delta(eof_from_concurrence(math.sqrt(min(y, 1.0))), eofs, m))
        else:
            extra["out_of_range"] += 1
        return min(slacks) if slacks else 0.0

    def slacks(states):
        for state in states:
            if state.n_subsystems < 2 or any(d != 2 for d in state.dims):
                raise ValueError(
                    f"functional lift needs two or more qubits, got dims {list(state.dims)}"
                )
        cs = _cut_table(concurrence, states, lambda n: _focus_cuts(n, 0)[2])
        pure = [state.is_pure() for state in states]
        # entanglement entropy: evaluate(EOF) runs Wootters on 2 qubits
        entropies = iter(_cut_table(_pure_cut_entropy, list(itertools.compress(states, pure)),
                                    lambda n: _focus_cuts(n, 0)[1:2]))
        return [slack(c, next(entropies)[0] if p else None) for c, p in zip(cs, pure)]

    return _run_suite("functional-lift-eof", ensemble, seed, extra, slacks)


# ---------------------------------------------------------------------------
# mixed-state lifting (squared negativity) and the high-power probe
# ---------------------------------------------------------------------------

def _mixed_computable(kind) -> MeasureKind:
    """The normalized measure, which must be computable on mixed cuts: only
    the negativity family is."""
    kind = _normalized(kind)
    if kind.tag not in (Measure.NEGATIVITY, Measure.LOG_NEGATIVITY):
        raise ValueError(
            f"mixed-state suites need a mixed-computable measure, got {kind.label()}"
        )
    return kind


def verify_mixed_lifting(kind, ensemble, seed: int) -> VerificationSummary:
    """Squared-measure monogamy on mixed-state ensembles.

    Only the negativity family is directly computable on mixed cuts, so the
    measure is restricted to it. delta at r = 2 is asserted; delta at r = 1
    is tabulated in extra without assertion.
    """
    kind = _mixed_computable(kind)
    r1 = []

    def slack(whole, parts):
        r1.append(whole - math.fsum(parts))
        return _delta(whole, parts, 2.0)

    summary = _run_suite("mixed-lifting", ensemble, seed, _measure_extra(kind),
                         _base_slacks(kind, slack))
    if r1:
        summary.extra["r1_scores"] = {
            "min": float(min(r1)),
            "max": float(max(r1)),
            "nonnegative_fraction": float(
                sum(1 for v in r1 if v >= -STATE_TOL) / len(r1)
            ),
        }
    return summary


def probe_high_power_mixed(r_values, ensemble, seed: int, kind=Measure.NEGATIVITY) -> VerificationSummary:
    """Exploratory scores delta(r) for r >= 2 on mixed ensembles.

    Asserts nothing (the high-power mixed case is open), so it never counts
    a violation; records worst margins per exponent, keyed by the
    exponent's CSV number format (``.17g``), and cross-checks the
    implication that delta(2) >= 0 with values in [0, 1] forces delta(r) >= 0
    for r > 2. The exponents must be distinct.
    """
    rs = _reals(r_values, "probe exponent", 2.0, closed=True)
    if len(set(rs)) < len(rs):
        raise ValueError(f"probe exponents must be distinct, got {list(rs)}")
    kind = _mixed_computable(kind)
    per_r = {r: math.inf for r in rs}
    extra = dict(_measure_extra(kind), r_values=list(rs), implication_violations=0)

    def slack(whole, parts):
        implied = _delta(whole, parts, 2.0) >= -STATE_TOL
        ds = [_delta(whole, parts, r) for r in rs]
        for r, d in zip(rs, ds):
            per_r[r] = min(per_r[r], d)
            extra["implication_violations"] += implied and d < -STATE_TOL
        return min(ds)

    summary = _run_suite("probe-high-power", ensemble, seed, extra, _base_slacks(kind, slack),
                         tol=math.inf)
    # the CSV number format: "2", "3", and distinct exponents get distinct keys
    summary.extra["worst_margin_per_r"] = {format(r, ".17g"): float(v) for r, v in per_r.items()}
    return summary


# ---------------------------------------------------------------------------
# strong monogamy and hierarchy chains over ensembles
# ---------------------------------------------------------------------------

def verify_strong_chain(kind, ensemble, alpha: float, seed: int, focus: int = 0) -> VerificationSummary:
    """Both gaps of the strong monogamy chain on every sampled state."""
    kind, alpha = as_kind(kind), _strong_alpha(alpha)

    def slack(state):
        rep = strong_monogamy_report(kind, state, focus, alpha)
        return min(rep.whole - rep.subset_average, rep.subset_average - rep.pair_sum)

    return _run_suite("strong-monogamy", ensemble, seed,
                      dict(_measure_extra(kind), alpha=alpha), lambda states: map(slack, states))


def verify_hierarchy_chain(kind, ensemble, alpha: float, seed: int, focus: int = 0) -> VerificationSummary:
    """Every hierarchy level must stay below the whole-cut value. The
    hierarchy's partner is the first party other than the focus."""
    kind, alpha = as_kind(kind), _hierarchy_alpha(alpha)

    def slack(state):
        partner = next(i for i in range(state.n_subsystems) if i != focus)
        whole = monogamy_score(kind, state, focus, alpha).whole
        rep = hierarchy_chain(kind, state, focus, partner, alpha)
        return min(whole - lvl for lvl in rep.levels)

    return _run_suite("hierarchy", ensemble, seed,
                      dict(_measure_extra(kind), alpha=alpha), lambda states: map(slack, states))


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------

def counterexample_search(kind, r: float, dims, restarts: int, seed: int,
                          max_steps: int = 400) -> VerificationSummary:
    """Hill-climbing search for pure states minimizing the monogamy score.

    Each restart draws a Haar pure state and perturbs one random coordinate
    of the real parametrization at a time, accepting only improvements.
    Step size starts at 0.1, halves after 20 consecutive rejections, and the
    climb stops below 1e-6 (or after max_steps evaluations; max_steps = 0
    returns the best of the unperturbed restarts). Asserts nothing; the most
    negative score found and its state are reported, and every restart's
    best is kept in extra["restart_bests"] for harvesting.
    """
    kind, r = as_kind(kind), _real(r, "r")
    restarts = _integer(restarts, "restarts must be >= 1 and an integer", 1)
    max_steps = _integer(max_steps, "max_steps must be >= 0 and an integer", 0)
    seed, dims = _seed(seed), _dims(dims)
    d = math.prod(dims)

    def state_of(params: np.ndarray) -> MultipartiteState:
        return MultipartiteState._pure(params[:d] + 1j * params[d:], dims)

    def score_of(params: np.ndarray) -> float:
        return monogamy_score(kind, state_of(params), 0, r).score

    summary = VerificationSummary(
        "counterexample-search",
        {"family": "hill_climb", "dims": list(dims), "count": restarts, "seed": seed},
    )
    bests = []
    summary.extra.update(_measure_extra(kind), r=r, max_steps=max_steps, restart_bests=bests)
    for i in range(restarts):
        rng = generator(seed, i)
        v = haar_vector(d, rng)  # same substream as haar_pure(dims, seed, index=i)
        params = np.concatenate([v.real, v.imag])
        current = score_of(params)
        step = 0.1
        rejects = 0
        evals = 0
        while step >= 1e-6 and evals < max_steps:
            j = int(rng.integers(2 * d))
            proposal = params.copy()
            proposal[j] += step * _normal(rng)
            candidate = score_of(proposal)
            evals += 1
            if candidate < current:
                params, current = proposal, candidate
                rejects = 0
            else:
                rejects += 1
                if rejects >= 20:
                    step *= 0.5
                    rejects = 0
        summary.count += 1
        bests.append({"score": float(current), "state": state_to_json(state_of(params))})
    best = min(bests, key=lambda b: b["score"])  # the first of equal scores
    summary.worst_margin, summary.offender = best["score"], best["state"]
    return summary._finalize()
