import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monolab
import oracles
from monolab import measures, monogamy, states, tensor
from monolab.measures import (
    Cut,
    Measure,
    MeasureKind,
    MeasureUndefinedError,
    classical_correlation,
    concurrence_pure_cut,
    concurrence_two_qubit,
    discord,
    eof_pure_cut,
    eof_two_qubit,
    evaluate,
    log_negativity,
    negativity,
    tangle_rank2,
)
from monolab.monogamy import share_sum

seeds = st.integers(min_value=0, max_value=2**32 - 1)

A_BC = Cut((0,), (1, 2))
A_B = Cut((0,), (1,))
A_C = Cut((0,), (2,))


def entropy(rho):
    """The von Neumann entropy in bits from the eigensolve that checks rho."""
    return float(tensor._entropies(tensor._density_eig(rho)[1]))


W_PAIR_C = 2.0 / 3.0
W_WHOLE_C = 2.0 * math.sqrt(2.0) / 3.0
W_PAIR_EOF = tensor.binary_entropy((1.0 + math.sqrt(5.0) / 3.0) / 2.0)
W_WHOLE_EOF = tensor.binary_entropy(1.0 / 3.0)


def product_state():
    psi = np.zeros(8)
    psi[0] = 1.0
    return states.MultipartiteState.from_vector(psi, (2, 2, 2))


def conjugate_local(rho, u, v):
    uv = np.kron(u, v)
    return uv @ rho @ uv.conj().T


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_concurrence_bell_state():
    assert abs(concurrence_two_qubit(states.ghz(2).rho) - 1.0) < 1e-12


def test_concurrence_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert concurrence_two_qubit(rho) == 0.0


def test_concurrence_w_pair_marginal():
    marg = states.w(3).marginal([0, 1]).rho
    assert abs(concurrence_two_qubit(marg) - W_PAIR_C) < 1e-12
    assert abs(oracles.concurrence(marg) - W_PAIR_C) < 1e-9


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence_two_qubit(np.eye(8) / 8)


def test_wootters_kernel_matches_the_spin_flip_products():
    # the singular values of tau = F^T (sy x sy) F replace the eigenvalues
    # of sqrt(rho) rho~ sqrt(rho) and their 1e-13 cutoff; a stack still
    # gives each matrix's own bits, and the former route agrees within 1e-13
    mats = [states.random_mixed((2, 2), rank, 11, i).rho for rank in (1, 2, 3, 4) for i in range(150)]
    for dims, pairs in (((2, 2, 2), [(0, 1), (0, 2), (1, 2)]), ((2,) * 4, [(0, 1), (1, 3), (2, 3)])):
        mats += [states.haar_pure(dims, 12, i).marginal(p).rho for i in range(70) for p in pairs]
    mats += [np.kron(states.random_mixed((2,), 2, 13, 0).rho, states.random_mixed((2,), 2, 13, 1).rho),
             np.eye(4) / 4]
    assert len(mats) >= 1000
    want = np.array(oracles.wootters_by_spin_flip_products(np.stack(mats)))
    one = np.array([concurrence_two_qubit(m) for m in mats])
    assert one.tobytes() == concurrence_two_qubit(np.stack(mats)).tobytes()
    assert np.abs(one - want).max() < 1e-13


def canonical_vector(lam, phi):
    """l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>, the local-
    unitary canonical form of a pure 3-qubit state (Acin et al., PRL 85,
    1560 (2000)); its three-tangle is 4 l0^2 l4^2."""
    v = np.zeros(8, dtype=complex)
    v[[0, 4, 5, 6, 7]] = lam
    v[4] *= np.exp(1j * phi)
    return v


def canonical_vectors(count, seed):
    """Canonical states with lam the normalised |standard normals|; every
    other state has one or two l_i in [1e-6, 1e-3]."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        lam = np.abs(rng.normal(size=5))
        lam /= np.linalg.norm(lam)
        if k % 2:
            small = np.zeros(5, dtype=bool)
            small[rng.choice(5, rng.integers(1, 3), replace=False)] = True
            lam[small] = 10 ** rng.uniform(-6, -3, small.sum())
            lam[~small] *= math.sqrt(1.0 - (lam[small] ** 2).sum()) / np.linalg.norm(lam[~small])
        out.append(canonical_vector(lam, rng.uniform(0.0, np.pi)))
    return out


@pytest.mark.parametrize("build", [states.MultipartiteState._pure, states.MultipartiteState.from_vector],
                         ids=["vector-checked", "matrix-checked"])
def test_squared_concurrence_score_is_the_three_tangle(build):
    # CKW: C^2(A:BC) - C^2(A:B) - C^2(A:C) is the three-tangle of a pure
    # 3-qubit state; weakly entangled pairs probe the Wootters kernel's small l_i
    vecs = canonical_vectors(400, 0) + [states.haar_pure((2, 2, 2), 14, i)._psi for i in range(60)]
    edges = ([0.6, 0.0, 0.0, 0.0, 0.8], [1.0, 0.0, 0.0, 0.0, 1e-6], [0.0, 0.6, 0.0, 0.8, 0.0])
    for k, lam in enumerate(edges):
        vecs.append(canonical_vector(np.array(lam) / np.linalg.norm(lam), 0.3 * k))
    worst = max(abs(monogamy.monogamy_score(Measure.CONCURRENCE, build(v, (2, 2, 2)), 0, 2.0).score
                    - oracles.three_tangle(v)) for v in vecs)
    assert worst < 1e-10


def test_concurrence_pure_cut_values():
    assert abs(concurrence_pure_cut(states.ghz(3), A_BC) - 1.0) < 1e-12
    assert concurrence_pure_cut(product_state(), A_BC) == 0.0
    assert abs(concurrence_pure_cut(states.w(3), A_BC) - W_WHOLE_C) < 1e-12


def test_concurrence_pure_cut_rejects_mixed_and_large_side():
    mixed = states.random_mixed((2, 2, 2), 4, seed=0)
    with pytest.raises(ValueError):
        concurrence_pure_cut(mixed, A_BC)
    with pytest.raises(ValueError):
        concurrence_pure_cut(states.ghz(3), Cut((0, 1), (2,)))


# ---------------------------------------------------------------------------
# rank-2 convex-roof squared concurrence
# ---------------------------------------------------------------------------

@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_tangle_rank2_matches_wootters_on_two_qubits(seed):
    # rank-2 two-qubit marginals of pure three-qubit states
    rho = states.haar_pure((2, 2, 2), seed).marginal([0, 1]).rho
    tau = tangle_rank2(rho, (2, 2), 0)
    c = concurrence_two_qubit(rho)
    assert abs(tau - c * c) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tangle_rank2_is_the_roof_lower_envelope(seed):
    # closed form <= every two-point decomposition, and chords approach it
    rho = states.haar_pure((2, 2, 2, 2), seed).marginal([0, 1, 2]).rho
    tau = tangle_rank2(rho, (2, 2, 2), 0)
    chord = oracles.tangle_roof_chords(rho, (2, 2, 2), 0, directions=1500, seed=seed)
    assert chord >= tau - 1e-9
    assert chord - tau < 3e-3  # random-direction scan converges quadratically


def test_tangle_rank2_separable_mixture_is_zero():
    rho = states.ghz(4).marginal([0, 1, 2]).rho
    assert tangle_rank2(rho, (2, 2, 2), 0) == 0.0


def test_tangle_rank2_rejects_higher_rank():
    full = states.random_mixed((2, 2, 2), 5, seed=1)
    with pytest.raises(MeasureUndefinedError):
        tangle_rank2(full.rho, full.dims, 0)


# ---------------------------------------------------------------------------
# negativity family
# ---------------------------------------------------------------------------

def test_negativity_classical_state_all_cuts():
    s = states.classical_corr_state()
    for cut in (A_BC, A_B, A_C, Cut((1,), (0, 2))):
        assert negativity(s, cut) == 0.0


def test_negativity_ghz_values():
    g = states.ghz(3)
    assert abs(negativity(g, A_BC) - 0.5) < 1e-12
    assert abs(negativity(g, A_BC, normalized=True) - 1.0) < 1e-12
    assert negativity(g, A_B) == 0.0  # PPT two-qubit marginal
    assert abs(oracles.negativity(g.rho, (2, 2, 2), [0]) - 0.5) < 1e-9


def test_log_negativity_values():
    g = states.ghz(3)
    assert abs(log_negativity(g, A_BC) - 1.0) < 1e-12
    assert log_negativity(product_state(), A_BC) == 0.0


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_log_negativity_zero_iff_negativity_zero(seed):
    s = states.random_mixed((2, 2, 2), seed % 8 + 1, seed)
    for cut in (A_BC, A_B):
        n = negativity(s, cut)
        ln = log_negativity(s, cut)
        assert (n == 0.0) == (ln == 0.0)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_negativity_convexity(seed):
    rho1 = states.random_mixed((2, 2), 4, seed, index=0)
    rho2 = states.random_mixed((2, 2), 4, seed, index=1)
    lam = (seed % 101) / 100.0
    mix = states.MultipartiteState(lam * rho1.rho + (1 - lam) * rho2.rho, (2, 2))
    lhs = negativity(mix, A_B)
    rhs = lam * negativity(rho1, A_B) + (1 - lam) * negativity(rho2, A_B)
    assert lhs <= rhs + 1e-9


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_negativity_matches_oracle_on_mixed_qutrit_cuts(seed):
    for dims in ((2, 3), (3, 3)):
        s = states.random_mixed(dims, 2 + seed % 5, seed)
        for side_a, side_b in ((0, 1), (1, 0)):
            got = negativity(s, Cut((side_a,), (side_b,)))
            assert abs(got - oracles.negativity(s.rho, dims, [side_a])) < 1e-10


def phase_rotated(state, n):
    """The state conjugated by the local diagonal unitary that gives qubit k
    the phase e^{i (k+1)}: every coherence becomes complex, and no
    entanglement measure moves."""
    phases = np.ones(1)
    for k in range(n):
        phases = np.kron(phases, [1.0, np.exp(1j * (k + 1))])
    return states.MultipartiteState(state.rho * np.outer(phases, phases.conj()), state.dims)


@pytest.mark.parametrize("path", ["real", "complex"])
@pytest.mark.parametrize("family", ["ghz", "w"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_noisy_negativity_matches_the_closed_forms(n, family, path):
    # the named state has a real matrix and takes the real solve; the phase
    # rotated copy has a complex one, up to the real I/d at p = 1, and takes
    # the complex solve
    base = states.named_state(f"{family}{n}")
    if path == "complex":
        base = phase_rotated(base, n)
    whole, pair = Cut((0,), tuple(range(1, n))), Cut((0,), (1,))
    for p in np.linspace(0.0, 1.0, 11).tolist():
        s = states.white_noise_mix(base, p)
        assert bool(s.rho.imag.any()) == (path == "complex" and p < 1.0)
        assert abs(negativity(s, whole) - oracles.noisy_negativity_first_qubit(family, n, p)) < 1e-14
        assert abs(negativity(s, pair) - oracles.noisy_negativity_pair(family, n, p)) < 1e-14


# ---------------------------------------------------------------------------
# entanglement of formation
# ---------------------------------------------------------------------------

def test_eof_endpoint_values():
    assert abs(eof_two_qubit(states.ghz(2).rho) - 1.0) < 1e-12
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert eof_two_qubit(rho) == 0.0


def test_eof_w_pair_matches_closed_form():
    marg = states.w(3).marginal([0, 1]).rho
    assert abs(eof_two_qubit(marg) - W_PAIR_EOF) < 1e-12


def test_eof_pure_cut_values():
    assert abs(eof_pure_cut(states.ghz(3), A_BC) - 1.0) < 1e-12
    assert eof_pure_cut(product_state(), A_BC) == 0.0
    assert abs(eof_pure_cut(states.w(3), A_BC) - W_WHOLE_EOF) < 1e-12
    with pytest.raises(ValueError):
        eof_pure_cut(states.random_mixed((2, 2, 2), 3, 0), A_BC)


@pytest.mark.parametrize("c, shown", [(math.nan, "nan"), (True, "True"), ("0.5", "'0.5'"), (1.5, "1.5"),
                                      (-0.1, "-0.1")])
def test_eof_from_concurrence_takes_a_concurrence_in_0_1(c, shown):
    # it once clamped: NaN gave NaN, and True and 1.5 the EoF of C = 1
    with pytest.raises(ValueError, match=rf"^concurrence must lie in \[0\.0, 1\.0\], got {re.escape(shown)}$"):
        measures.eof_from_concurrence(c)
    assert measures.eof_from_concurrence(np.float32(1.0)) == measures.eof_from_concurrence(1) == 1.0


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_eof_monotone_in_concurrence(seed):
    pairs = []
    for i in range(12):
        rho = states.random_mixed((2, 2), i % 4 + 1, seed, index=i).rho
        pairs.append((concurrence_two_qubit(rho), eof_two_qubit(rho)))
    pairs.sort()
    for (c1, e1), (c2, e2) in zip(pairs, pairs[1:]):
        assert e2 >= e1 - 1e-12


# ---------------------------------------------------------------------------
# classical correlation and discord
# ---------------------------------------------------------------------------

def test_classical_correlation_of_classical_mixture():
    marg = states.classical_corr_state().marginal([0, 1]).rho
    assert abs(classical_correlation(marg, "a") - 1.0) < 1e-4
    assert abs(classical_correlation(marg, "b") - 1.0) < 1e-4


def test_classical_correlation_product_state():
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])).astype(complex)
    assert classical_correlation(rho, "a") < 1e-6
    assert classical_correlation(rho, "b") < 1e-6


def test_classical_correlation_bell_state():
    assert abs(classical_correlation(states.ghz(2).rho, "b") - 1.0) < 1e-4


def test_the_direction_grid_is_built_once_on_first_use():
    src = str(Path(monolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import monolab; print(monolab.measures._direction_grid.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.strip() == "0", proc.stderr  # importing does not build it
    rho = states.random_mixed((2, 2), 3, 4).rho
    measures._direction_grid.cache_clear()
    first = classical_correlation(rho, "b")
    assert classical_correlation(rho, "b") == first
    info = measures._direction_grid.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    thetas, phis, n = measures._direction_grid()
    assert n.shape == (3, 64 * 64) and not n.flags.writeable
    assert (thetas[0], thetas[-1], phis[0], len(phis)) == (0.0, math.pi, 0.0, 64)


def test_classical_correlation_against_dense_grid_oracle():
    rho = states.random_mixed((2, 2), 3, seed=17).rho
    for side in "ab":
        got = classical_correlation(rho, side)
        want = oracles.classical_correlation(rho, side, grid=181)
        assert got >= want - 1e-6  # refinement can only improve on a coarse scan
        assert abs(got - want) < 1e-3


def bloch_and_projector_sums(rho, side, theta, phi):
    """The conditional-entropy sum at each direction from the Bloch kernel,
    vectorised and per point, and from the projector oracle."""
    _, a, b, t = measures._bloch_form(rho[None], side)
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    grid = measures._conditional_entropy_grid(a, b, t, n)
    lists = (a.tolist(), b.tolist(), t.tolist())
    point = [measures._conditional_entropy(*lists, th, ph) for th, ph in zip(theta, phi)]
    return grid, np.array(point), oracles.conditional_entropy_sum(rho, side, theta, phi)


@given(seed=seeds, rank=st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_bloch_conditional_entropy_matches_projector_oracle(seed, rank):
    rng = np.random.default_rng(seed)
    rho = states.random_mixed((2, 2), rank, seed).rho
    theta = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 8)])
    phi = rng.uniform(0.0, 2.0 * np.pi, 10)
    for side in "ab":
        grid, point, want = bloch_and_projector_sums(rho, side, theta, phi)
        assert np.max(np.abs(grid - want)) < 1e-12
        assert np.max(np.abs(point - want)) < 1e-12


@pytest.mark.parametrize("side", ["a", "b"])
def test_bloch_conditional_entropy_with_an_impossible_outcome(side):
    # measuring a pure qubit along its own axis: one outcome has probability 0
    pure, mixed = np.diag([1.0, 0.0]), np.diag([0.6, 0.4])
    rho = (np.kron(pure, mixed) if side == "a" else np.kron(mixed, pure)).astype(complex)
    theta, phi = np.array([0.0, np.pi, 0.5]), np.array([0.0, 0.0, 1.0])
    grid, point, want = bloch_and_projector_sums(rho, side, theta, phi)
    assert np.all(np.isfinite(grid))
    assert np.max(np.abs(grid - want)) < 1e-12
    assert np.max(np.abs(point - want)) < 1e-12


# Bell-diagonal correlations (c1, c2, c3) of the four Bell states
BELL_CORRELATIONS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_bell_diagonal_against_luo_closed_form(seed):
    c = np.random.default_rng(seed).dirichlet(np.ones(4)) @ BELL_CORRELATIONS
    rho, classical, disc = oracles.bell_diagonal(c)
    for side in "ab":
        assert abs(classical_correlation(rho, side) - classical) < 1e-9
        assert abs(discord(rho, side) - disc) < 1e-9


def test_discord_values():
    marg = states.classical_corr_state().marginal([0, 1]).rho
    assert discord(marg, "b") == 0.0
    assert abs(discord(states.ghz(2).rho, "b") - 1.0) < 1e-4
    product = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])).astype(complex)
    assert discord(product, "a") == 0.0


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_discord_matches_mutual_information_formula(seed):
    """discord takes S(rho_A), S(rho_B) from the Bloch form and S(rho) from
    its checking eigensolve; the marginal-entropy formula is the reference."""
    rho = states.random_mixed((2, 2), 1 + seed % 4, seed).rho
    mutual = (
        entropy(tensor.partial_trace(rho, (2, 2), [0]))
        + entropy(tensor.partial_trace(rho, (2, 2), [1]))
        - entropy(rho)
    )
    for side in "ab":
        d = mutual - classical_correlation(rho, side)
        want = 0.0 if -1e-6 <= d < 1e-12 else d
        assert abs(discord(rho, side) - want) < 1e-12


def test_discord_rejects_bad_side():
    with pytest.raises(ValueError):
        discord(states.ghz(2).rho, "c")


PURE_WHOLE_CUTS = [((2, 2, 2), Cut((0,), (1, 2))), ((2, 2, 2), Cut((1,), (2, 0))),
                   ((2, 2, 2, 2), Cut((0,), (1, 2, 3))), ((3, 2, 2), Cut((1,), (0, 2)))]


@pytest.mark.parametrize("tag", [Measure.DISCORD, Measure.CLASSICAL_CORRELATION])
@pytest.mark.parametrize("dims, cut", PURE_WHOLE_CUTS, ids=lambda x: str(x))
def test_discord_and_classical_correlation_are_the_entropy_on_pure_whole_cuts(tag, dims, cut):
    # a Schmidt-basis measurement is optimal on a pure state: J = D = S(A),
    # from the vector form of a Haar state and from the matrix of a rank-1 one
    for s in (states.haar_pure(dims, 31, 2), states.random_mixed(dims, 1, 31, 2)):
        want = oracles.entropy(tensor.partial_trace(s.rho, s.dims, cut.side_a))
        assert abs(evaluate(MeasureKind(tag), s, cut) - want) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_the_bloch_optimiser_meets_the_pure_state_identity_on_2x2(seed):
    rho = states.haar_pure((2, 2), seed).rho
    want = oracles.entropy(tensor.partial_trace(rho, (2, 2), [0]))
    for side in ("a", "b"):
        assert abs(discord(rho, side) - want) <= 1e-4
        assert abs(classical_correlation(rho, side) - want) <= 1e-4


@pytest.mark.parametrize("tag", [Measure.DISCORD, Measure.CLASSICAL_CORRELATION])
def test_discord_and_classical_correlation_stay_undefined_on_mixed_whole_cuts(tag):
    s = states.random_mixed((2, 2, 2), 2, 31)
    message = f"^{tag.value} defined only on 2x2 cuts, requested 2x4$"
    with pytest.raises(MeasureUndefinedError, match=message):
        evaluate(MeasureKind(tag), s, A_BC)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_evaluate_matches_direct_operations():
    g = states.ghz(3)
    assert evaluate(MeasureKind(Measure.NEGATIVITY), g, A_BC) == negativity(g, A_BC)
    w3 = states.w(3)
    marg = w3.marginal([0, 1]).rho
    assert evaluate(MeasureKind(Measure.EOF), w3, A_B) == eof_two_qubit(marg)
    assert evaluate("concurrence", product_state(), A_B) == 0.0


def test_evaluate_uses_pure_identities_automatically():
    w3 = states.w(3)
    assert abs(evaluate(MeasureKind(Measure.CONCURRENCE), w3, A_BC) - W_WHOLE_C) < 1e-12
    assert abs(evaluate(MeasureKind(Measure.EOF), w3, A_BC) - W_WHOLE_EOF) < 1e-12


def test_evaluate_rank2_concurrence_on_mixed_cut():
    s = states.haar_pure((2, 2, 2, 2), 3)
    val = evaluate(MeasureKind(Measure.CONCURRENCE), s, Cut((0,), (1, 2)))
    tau = tangle_rank2(s.marginal([0, 1, 2]).rho, (2, 2, 2), 0)
    assert abs(val - math.sqrt(tau)) < 1e-12


def test_evaluate_measure_undefined_errors():
    mixed = states.random_mixed((2, 2, 2), 5, seed=2)
    with pytest.raises(MeasureUndefinedError):
        evaluate(MeasureKind(Measure.EOF), mixed, A_BC)
    with pytest.raises(MeasureUndefinedError):
        evaluate(MeasureKind(Measure.DISCORD), mixed, A_BC)
    with pytest.raises(MeasureUndefinedError):
        evaluate(MeasureKind(Measure.CONCURRENCE), mixed, A_BC)  # rank > 2


def test_evaluate_normalization_flag():
    g = states.ghz(3)
    plain = evaluate(MeasureKind(Measure.NEGATIVITY), g, A_BC)
    scaled = evaluate(MeasureKind(Measure.NEGATIVITY, normalized=True), g, A_BC)
    assert abs(scaled - 2.0 * plain) < 1e-15


def test_cut_validation():
    with pytest.raises(ValueError):
        Cut((), (1,))
    with pytest.raises(ValueError):
        Cut((0,), (0, 1))
    with pytest.raises(ValueError):
        evaluate(MeasureKind(Measure.NEGATIVITY), states.ghz(3), Cut((0,), (5,)))


def test_measure_parsing():
    assert Measure.from_string("log-negativity") is Measure.LOG_NEGATIVITY
    assert Measure.from_string("LogNeg") is Measure.LOG_NEGATIVITY
    with pytest.raises(ValueError):
        Measure.from_string("tangle")
    with pytest.raises(ValueError, match="^unknown measure 3$"):
        Measure.from_string(3)
    assert all(Measure.from_string(m) is m for m in Measure)


def test_measure_kind_parses_a_string_tag():
    kind = MeasureKind("negativity", normalized=True)
    assert kind == MeasureKind(Measure.NEGATIVITY, normalized=True)
    assert kind.label() == "negativity"
    w3 = states.w(3)
    assert evaluate(MeasureKind("negativity"), w3, A_BC) == negativity(w3, A_BC)
    with pytest.raises(ValueError, match="unknown measure 'tangle'"):
        MeasureKind("tangle")


def test_measure_kind_normalized_must_be_a_bool():
    # "false" is truthy: it once doubled the negativity and reached suite JSON as a string
    for flag in ("false", "true", 0, 1, 1.0, None):
        with pytest.raises(ValueError, match="^normalized must be a bool, got "):
            MeasureKind(Measure.NEGATIVITY, flag)
    kind = MeasureKind(Measure.NEGATIVITY, np.bool_(True))
    assert kind.normalized is True and kind == MeasureKind(Measure.NEGATIVITY, True)
    w3 = states.w(3)
    assert evaluate(MeasureKind(Measure.NEGATIVITY, np.bool_(False)), w3, A_BC) == negativity(w3, A_BC)
    with pytest.raises(ValueError, match="^normalized must be a bool, got 'false'$"):
        negativity(w3, A_BC, "false")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_local_unitary_invariance_fast_measures(seed):
    rng = np.random.default_rng(seed)
    rho = states.random_mixed((2, 2), 4, seed).rho
    u = oracles.gram_schmidt_unitary(2, rng)
    v = oracles.gram_schmidt_unitary(2, rng)
    rotated = conjugate_local(rho, u, v)
    s1 = states.MultipartiteState(rho, (2, 2))
    s2 = states.MultipartiteState(rotated, (2, 2))
    assert abs(concurrence_two_qubit(rho) - concurrence_two_qubit(rotated)) < 1e-6
    assert abs(negativity(s1, A_B) - negativity(s2, A_B)) < 1e-6
    assert abs(log_negativity(s1, A_B) - log_negativity(s2, A_B)) < 1e-6
    assert abs(eof_two_qubit(rho) - eof_two_qubit(rotated)) < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_local_unitary_invariance_optimized_measures(seed):
    rng = np.random.default_rng(seed)
    rho = states.random_mixed((2, 2), 2, seed).rho
    u = oracles.gram_schmidt_unitary(2, rng)
    v = oracles.gram_schmidt_unitary(2, rng)
    rotated = conjugate_local(rho, u, v)
    assert abs(classical_correlation(rho, "b") - classical_correlation(rotated, "b")) < 1e-3
    assert abs(discord(rho, "b") - discord(rotated, "b")) < 1e-3


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_measure_positivity(seed):
    s = states.random_mixed((2, 2, 2), seed % 8 + 1, seed)
    for kind in (Measure.NEGATIVITY, Measure.LOG_NEGATIVITY):
        for cut in (A_BC, A_B, A_C):
            assert evaluate(MeasureKind(kind), s, cut) >= -1e-9
    pair = s.marginal([0, 1]).rho
    assert concurrence_two_qubit(pair) >= -1e-9
    assert eof_two_qubit(pair) >= -1e-9
    assert discord(pair, "b") >= -1e-6


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_pure_state_consistency(seed):
    s = states.haar_pure((2, 2), seed)
    assert abs(eof_pure_cut(s, A_B) - eof_two_qubit(s.rho)) < 1e-8
    assert abs(concurrence_pure_cut(s, A_B) - concurrence_two_qubit(s.rho)) < 1e-8


# ---------------------------------------------------------------------------
# the one density-matrix rule
# ---------------------------------------------------------------------------

DENSITY_KERNELS = {
    "MultipartiteState": lambda m: states.MultipartiteState(m, (2, 2)),
    "concurrence_two_qubit": concurrence_two_qubit,
    "eof_two_qubit": eof_two_qubit,
    "tangle_rank2": lambda m: tangle_rank2(m, (2, 2), 0),
    "entropy": entropy,
    "discord": discord,
    "classical_correlation": classical_correlation,
}
_HH = np.kron(*2 * [np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)])  # real orthogonal


def with_spectrum(*lam):
    """A two-qubit matrix with eigenvalues lam, in a basis other than the standard one."""
    return _HH @ np.diag(lam) @ _HH.T


@pytest.mark.parametrize("name", sorted(DENSITY_KERNELS))
def test_every_density_kernel_applies_the_one_rule(name):
    kernel = DENSITY_KERNELS[name]
    with pytest.raises(ValueError, match="^density matrix is not Hermitian"):
        kernel(np.eye(4) / 4 + np.diag([2e-10j, 0.0, 0.0], 1))
    with pytest.raises(ValueError, match="^density matrix trace 2 != 1$"):
        kernel(np.eye(4) / 2)
    with pytest.raises(ValueError, match=r"^density matrix has eigenvalue -1\.000e-02 < -1e-9$"):
        kernel(with_spectrum(0.51, 0.5, 0.0, -0.01))


def test_an_eigenvalue_the_constructor_accepts_is_clamped_by_every_kernel():
    rho = with_spectrum(0.6, 0.4 + 5e-10, 0.0, -5e-10)
    states.MultipartiteState(rho, (2, 2))
    for kernel in (entropy, discord, classical_correlation):
        assert math.isfinite(kernel(rho))
    state = states.MultipartiteState(np.kron(rho, np.diag([1.0, 0.0])), (2, 2, 2))
    assert math.isfinite(share_sum(Measure.DISCORD, state, 0))


def hermitian_edge_matrix():
    """I/8 plus i 4.5e-11 at (k, 2+k) and (2+k, k), k = 0, 1: its Hermiticity
    defect is 9e-11, within the 1e-10 rule, while its (0, 1) marginal would
    add both defects up to 1.8e-10."""
    rho = np.eye(8, dtype=complex) / 8
    for k in (0, 1):
        rho[k, 2 + k] = rho[2 + k, k] = 4.5e-11j
    return rho


@pytest.mark.parametrize("measure", [Measure.NEGATIVITY, Measure.CONCURRENCE, Measure.EOF,
                                     Measure.DISCORD])
def test_a_checked_state_scores_on_every_pair_cut(measure):
    # a checked state stores its input symmetrized, exactly Hermitian, so
    # the matrices derived from it need no check or symmetrization
    rho = hermitian_edge_matrix()
    state = states.MultipartiteState(rho, (2, 2, 2))
    assert np.array_equal(state.rho, state.rho.conj().T)
    assert np.abs(state.rho - rho).max() <= 4.5e-11
    for cut in (A_B, A_C, Cut((1,), (2,))):
        assert 0.0 <= evaluate(measure, state, cut) < 1e-9
