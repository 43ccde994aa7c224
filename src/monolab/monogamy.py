"""Monogamy scores at arbitrary exponents, critical-exponent search, and the
hierarchical / strong monogamy chains.

The monogamy score of a measure Q at exponent r, for focus party A of a state
on A, B_1, ..., B_n, is

    delta = Q^r(A : B_1...B_n) - sum_j Q^r(A : B_j)

with the convention 0^r := 0. Nonnegative score means the state is
monogamous under Q^r (tolerance -1e-9 across the package, covering the
accumulated eigensolver error budget).

``base_values`` and the reports built on it (``monogamy_score``,
``power_sweep``, ``critical_exponent``, ``share_sum``) call ``evaluate``
once per cut. The strong and hierarchy reports, and the sampled suites of
``verify``, read one private cut table instead (``_cut_table``): every cut
of every state is reduced, and the reduced stacks that share a cut plan
are scored in one stacked call. Its values are bit-identical to those of
``evaluate``, and its errors are those of a per-state, per-cut loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import (Cut, MeasureKind, _normalized, _reduced, _score_stack, _state_reduced, as_kind,
                       evaluate)
from .states import MultipartiteState, _indices


class BracketError(ValueError):
    """The supplied exponent bracket does not enclose a sign change."""


@dataclass(frozen=True)
class MonogamyReport:
    """Q^r on the whole cut, the per-party pair terms, and the score."""

    measure: MeasureKind
    exponent: float
    whole: float
    parts: tuple[float, ...]
    score: float


@dataclass(frozen=True)
class StrongMonogamyReport:
    """Three-term strong monogamy data: whole, subset average, pair sum.

    subset_terms holds (bitmask over the non-focus parties, Q^alpha value)
    for every nonempty proper subset, in ascending mask order.
    """

    measure: MeasureKind
    alpha: float
    n: int
    whole: float
    subset_average: float
    pair_sum: float
    subset_terms: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class HierarchyReport:
    """Right-hand sides of the hierarchical monogamy chain, coarse to fine."""

    measure: MeasureKind
    exponent: float
    focus: int
    partner: int
    levels: tuple[float, ...]


def _exponent(x, what: str, lo: float = 0.0, closed: bool = False, hi: float = math.inf) -> float:
    """``float(x)`` if it is finite, above ``lo`` (or equal to it when ``closed``)
    and at most ``hi``, else ValueError: the one check of every exponent and
    tolerance, and of the measure values a caller hands to the bisection."""
    x = float(x)
    if (lo <= x if closed else lo < x) and x <= hi and x < math.inf:  # NaN fails each test
        return x
    interval = f"{'[' if closed else '('}{lo!r}, {hi!r}{']' if hi < math.inf else ')'}"
    raise ValueError(f"{what} must lie in {interval}, got {x!r}")


def _exponents(xs, what: str, lo: float = 0.0, closed: bool = False,
               hi: float = math.inf) -> tuple[float, ...]:
    """``_exponent`` of each element of a nonempty list, as a tuple, else
    ValueError: the one check of every exponent list."""
    out = tuple(_exponent(x, what, lo, closed, hi) for x in xs)
    if not out:
        raise ValueError(f"{what} list must be nonempty")
    return out


def _pow(x: float, r: float) -> float:
    """x^r with 0^r := 0, the one power; beyond the float range it is a ValueError."""
    try:
        return 0.0 if x == 0.0 else float(x) ** r
    except OverflowError:
        raise ValueError(f"{x:g}^{r:g} overflows a float") from None


def _fsum(values, r: float) -> float:
    """math.fsum of powers at exponent r; beyond the float range it is a ValueError."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValueError(f"a sum of powers at exponent {r:g} overflows a float") from None


def _terms(whole: float, parts, r: float) -> tuple[float, tuple[float, ...], float]:
    """whole^r, each part_j^r, and the score whole^r - sum_j part_j^r."""
    w = _pow(whole, r)
    ps = tuple(_pow(p, r) for p in parts)
    return w, ps, w - _fsum(ps, r)


def _delta(whole: float, parts, r: float) -> float:
    """The monogamy score whole^r - sum_j part_j^r of unexponentiated values."""
    return _terms(whole, parts, r)[2]


# the exponent of each chain, checked by its report and by its verify suite
_strong_alpha = functools.partial(_exponent, what="alpha", lo=1.0, closed=True)  # alpha >= 1
_hierarchy_alpha = functools.partial(_exponent, what="alpha")  # alpha > 0


# The cut caches below are keyed on the type of each argument too, so that
# 1.0 or True never hits an entry made for 1: the index rule then raises.
@functools.lru_cache(maxsize=64, typed=True)
def _focus_cuts(n: int, focus: int) -> tuple[tuple[int, ...], Cut | None, tuple[Cut, ...]]:
    """The other parties of an n-party state in index order, the whole cut
    focus : others (None if there are none) and the pair cuts focus : j."""
    (focus,) = _indices((focus,), n)
    others = tuple(i for i in range(n) if i != focus)
    whole = Cut((focus,), others) if others else None
    return others, whole, tuple(Cut((focus,), (j,)) for j in others)


@functools.lru_cache(maxsize=64, typed=True)
def _monogamy_cuts(n: int, focus: int) -> tuple[Cut, ...]:
    """The whole cut focus : others, then the pair cuts focus : j."""
    _, whole_cut, pair_cuts = _focus_cuts(n, focus)
    if len(pair_cuts) < 2:
        raise ValueError("monogamy needs at least 3 subsystems")
    return (whole_cut, *pair_cuts)


def base_values(kind, state: MultipartiteState, focus: int) -> tuple[float, tuple[float, ...]]:
    """Unexponentiated measure values: whole cut and every pair cut."""
    kind = as_kind(kind)
    cuts = _monogamy_cuts(state.n_subsystems, focus)
    whole = evaluate(kind, state, cuts[0])
    parts = tuple(evaluate(kind, state, cut) for cut in cuts[1:])
    return whole, parts


def _cut_table(score, states, cuts_of, post=float) -> list[tuple[float, ...]]:
    """For each state of a list, in order, the tuple of ``post(value)`` over
    its cuts ``cuts_of(n)``; the default ``post`` keeps each value as is.

    ``score(red, *plan)`` scores a reduced stack and its cut plan
    (``measures._reduced``) and returns a list. The states that share their
    dims, and whether they carry a unit vector, are stacked and reduced once
    per cut, so each state is reduced as ``evaluate`` reduces it: from its
    vector when it has one. The reduced stacks that share a plan (its form,
    matrices or Schmidt coefficients, then rdims, a_pos, b_pos), across cuts
    and dims, are scored in one call. When anything raises ValueError, the
    work is replayed one state and one cut at a time, so the error raised is
    the one a per-state loop raises first.
    """
    groups: dict[tuple, list[int]] = {}
    for i, state in enumerate(states):
        groups.setdefault((state.dims, state._psi is not None), []).append(i)
    table: list = [None] * len(states)
    by_plan: dict[tuple, list] = {}  # plan -> [(reduced stack, state indices, cut position)]
    try:
        for (dims, vector), idx in groups.items():
            rho = np.stack([states[i].rho for i in idx])
            psi = np.stack([states[i]._psi for i in idx]) if vector else None
            cuts = cuts_of(len(dims))
            for i in idx:
                table[i] = [None] * len(cuts)
            for j, cut in enumerate(cuts):
                red, *plan = _reduced(rho, dims, cut, psi)
                by_plan.setdefault(tuple(plan), []).append((red, idx, j))
        for plan, parts in by_plan.items():
            values = iter(score(np.concatenate([red for red, _, _ in parts]), *plan))
            for _, idx, j in parts:
                for i in idx:
                    table[i][j] = post(next(values))
    except ValueError:
        for state in states:
            for cut in cuts_of(state.n_subsystems):
                post(score(*_state_reduced(state, cut))[0])
        raise
    return [tuple(row) for row in table]


def _base_values_stack(kind, states, focus: int) -> list[tuple[float, tuple[float, ...]]]:
    """``base_values`` of each state of a list, from one cut table; values
    and errors are those of a per-state loop."""
    score = functools.partial(_score_stack, as_kind(kind))
    values = _cut_table(score, states, lambda n: _monogamy_cuts(n, focus))
    return [(v[0], v[1:]) for v in values]


def monogamy_score(kind, state: MultipartiteState, focus: int, r: float) -> MonogamyReport:
    """Monogamy score delta at a finite exponent r > 0 (r <= 0 is rejected:
    zero-valued pair terms make the inverted inequality numerically singular)."""
    kind, r = as_kind(kind), _exponent(r, "exponent")
    return MonogamyReport(kind, r, *_terms(*base_values(kind, state, focus), r))


def power_sweep(kind, state: MultipartiteState, focus: int, r_grid) -> list[MonogamyReport]:
    """Monogamy reports over an exponent grid; measure values are computed
    once and re-exponentiated per grid point."""
    rs = _exponents(r_grid, "exponent")
    kind = as_kind(kind)
    whole, parts = base_values(kind, state, focus)
    return [MonogamyReport(kind, r, *_terms(whole, parts, r)) for r in rs]


@dataclass(frozen=True)
class CriticalExponent:
    """Bisection result: the crossing exponent and the endpoint scores."""

    r_star: float
    bracket: tuple[float, float]
    tol: float
    score_lo: float
    score_hi: float
    steps: tuple[tuple[float, float, float, float], ...]  # (lo, hi, mid, score_mid)


def _bisection(bracket, tol) -> tuple[float, float, float]:
    """The checked bracket ends 0 < lo < hi and tol > 0, all finite."""
    lo = _exponent(bracket[0], "bracket start")
    return lo, _exponent(bracket[1], "bracket end", lo), _exponent(tol, "tol")


def bisect_score_crossing(whole: float, parts, bracket, tol: float) -> CriticalExponent:
    """Bisect delta(r) = whole^r - sum parts^r over ``bracket``.

    ``whole`` and each part must be finite and >= 0. Requires delta < 0 at
    the lower endpoint and delta > 0 at the upper one; assumes a single sign
    change inside the bracket.
    """
    lo, hi, tol = _bisection(bracket, tol)
    bracket = (lo, hi)
    whole, *parts = (_exponent(v, "measure value", closed=True) for v in (whole, *parts))
    d_lo, d_hi = _delta(whole, parts, lo), _delta(whole, parts, hi)
    if not (d_lo < 0.0 < d_hi):
        raise BracketError(
            f"no bracketed crossing: delta({lo:g}) = {d_lo:.6g}, delta({hi:g}) = {d_hi:.6g}"
        )
    steps = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # tol below the float spacing of the bracket
            break
        d_mid = _delta(whole, parts, mid)
        steps.append((lo, hi, mid, d_mid))
        if d_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return CriticalExponent(0.5 * (lo + hi), bracket, tol, d_lo, d_hi, tuple(steps))


def critical_exponent(kind, state: MultipartiteState, focus: int, bracket, tol: float) -> CriticalExponent:
    """Locate the exponent where the monogamy score crosses zero. The bracket
    and tol are checked before any measure is evaluated."""
    lo, hi, tol = _bisection(bracket, tol)
    whole, parts = base_values(as_kind(kind), state, focus)
    return bisect_score_crossing(whole, parts, (lo, hi), tol)


def _cut_powers(kind: MeasureKind, state: MultipartiteState, cuts, alpha: float) -> tuple[float, ...]:
    """Q^alpha of one state on each of ``cuts``, from a cut table of one row."""
    power = functools.partial(_pow, r=alpha)
    return _cut_table(functools.partial(_score_stack, kind), [state], lambda _: cuts, power)[0]


@functools.lru_cache(maxsize=64, typed=True)
def _strong_cuts(n: int, focus: int) -> tuple[Cut, ...]:
    """The whole cut focus : others, then focus : X for each nonempty proper
    subset X of the others, in ascending bitmask order."""
    others, whole_cut, _ = _focus_cuts(n, focus)
    k = len(others)
    if k < 2:
        raise ValueError("strong monogamy needs at least 2 non-focus parties")
    subsets = (tuple(others[i] for i in range(k) if mask >> i & 1) for mask in range(1, 2**k - 1))
    return (whole_cut, *(Cut((focus,), members) for members in subsets))


def strong_monogamy_report(kind, state: MultipartiteState, focus: int, alpha: float) -> StrongMonogamyReport:
    """Evaluate the strong monogamy chain terms at exponent alpha >= 1.

    Nonempty proper subsets X of the non-focus parties are enumerated as
    ascending bitmasks 1 .. 2^n - 2; the subset average carries the weight
    1/(2^(n-1) - 1).
    """
    alpha = _strong_alpha(alpha)
    kind = as_kind(kind)
    cuts = _strong_cuts(state.n_subsystems, focus)
    n = len(cuts[0].side_b)
    whole, *values = _cut_powers(kind, state, cuts, alpha)
    terms = tuple(enumerate(values, start=1))
    subset_average = _fsum((v for _, v in terms), alpha) / (2 ** (n - 1) - 1)
    pair_sum = _fsum((v for mask, v in terms if mask.bit_count() == 1), alpha)
    return StrongMonogamyReport(kind, alpha, n, whole, subset_average, pair_sum, terms)


@functools.lru_cache(maxsize=64, typed=True)
def _hierarchy_cuts(n: int, focus: int, partner: int) -> tuple[Cut, ...]:
    """focus : partner, focus : j for each j of the rest (the parties other
    than focus and partner, in index order), then the tails focus : rest[k:]
    but the last, which is the last single cut."""
    focus, partner = _indices((focus, partner), n)
    if partner == focus:
        raise ValueError(f"invalid partner {partner}: it is the focus")
    rest = tuple(i for i in range(n) if i not in (focus, partner))
    if not rest:
        raise ValueError("hierarchy needs at least one subsystem beyond focus and partner")
    return tuple(Cut((focus,), side) for side in
                 ((partner,), *((j,) for j in rest), *(rest[k:] for k in range(len(rest) - 1))))


def hierarchy_chain(kind, state: MultipartiteState, focus: int, partner: int, alpha: float) -> HierarchyReport:
    """Right-hand sides of the hierarchical chain, splitting the non-partner
    block one subsystem at a time in index order (coarsest first)."""
    alpha = _hierarchy_alpha(alpha)
    kind = as_kind(kind)
    cuts = _hierarchy_cuts(state.n_subsystems, focus, partner)
    q_ab, *values = _cut_powers(kind, state, cuts, alpha)
    m = (len(values) + 1) // 2  # the number of single cuts
    singles, tails = values[:m], values[m:] + values[m - 1:m]
    levels = [q_ab + _fsum(singles[:k], alpha) + tail for k, tail in enumerate(tails)]
    if math.inf in levels:  # the two additions above can leave the float range
        raise ValueError(f"a hierarchy level at exponent {alpha:g} overflows a float")
    return HierarchyReport(kind, alpha, focus, partner, tuple(levels))


def share_sum(kind, state: MultipartiteState, focus: int) -> float:
    """Sum of normalized pair-cut values around the focus party (the quantity
    whose empirical maxima bound how much correlation the focus can share)."""
    kind = _normalized(kind)
    pair_cuts = _focus_cuts(state.n_subsystems, focus)[2]
    return math.fsum(evaluate(kind, state, cut) for cut in pair_cuts)
