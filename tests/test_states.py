import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolab import states, tensor

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def swap_qubits(rho, n, i, j):
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    t = rho.reshape((2,) * (2 * n))
    t = np.transpose(t, perm + [p + n for p in perm])
    return t.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# named states
# ---------------------------------------------------------------------------

def test_ghz2_is_bell_state():
    phi_plus = np.zeros(4)
    phi_plus[0] = phi_plus[3] = 1 / math.sqrt(2)
    assert np.abs(states.ghz(2).rho - np.outer(phi_plus, phi_plus)).max() < 1e-15


def test_ghz3_marginals():
    g = states.ghz(3)
    one = tensor.partial_trace(g.rho, g.dims, [1])
    assert np.abs(one - np.eye(2) / 2).max() < 1e-15
    two = tensor.partial_trace(g.rho, g.dims, [0, 2])
    assert np.abs(two - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-15


def test_w2_definition():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert np.abs(states.w(2).rho - np.outer(psi, psi)).max() < 1e-15


def test_w3_reduced_spectrum():
    marg = states.w(3).marginal([0])
    lam = tensor.eigvals_hermitian(marg.rho)
    assert np.abs(lam - np.array([1 / 3, 2 / 3])).max() < 1e-12


def test_named_state_rejects_small_n():
    with pytest.raises(ValueError):
        states.ghz(1)
    with pytest.raises(ValueError):
        states.w(1)
    with pytest.raises(ValueError):
        states.named_state("bogus")


@pytest.mark.parametrize("maker,n", [(states.ghz, 3), (states.w, 3), (states.ghz, 4), (states.w, 4)])
def test_permutation_symmetry(maker, n):
    rho = maker(n).rho
    for i, j in itertools.combinations(range(n), 2):
        assert np.abs(swap_qubits(rho, n, i, j) - rho).max() < 1e-12


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------

def test_white_noise_endpoints():
    g = states.ghz(3)
    assert np.abs(states.white_noise_mix(g, 0.0).rho - g.rho).max() == 0.0
    assert np.abs(states.white_noise_mix(g, 1.0).rho - np.eye(8) / 8).max() < 1e-15


def test_white_noise_half_spectrum():
    mixed = states.white_noise_mix(states.ghz(3), 0.5)
    lam = np.sort(tensor.eigvals_hermitian(mixed.rho))[::-1]
    expected = np.array([0.5 + 0.5 / 8] + [0.5 / 8] * 7)
    assert np.abs(lam - expected).max() < 1e-12


def test_white_noise_rejects_bad_p():
    with pytest.raises(ValueError):
        states.white_noise_mix(states.ghz(3), -0.1)
    with pytest.raises(ValueError):
        states.white_noise_mix(states.ghz(3), 1.1)


@given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_white_noise_composes_affinely(p, q):
    base = states.w(3)
    twice = states.white_noise_mix(states.white_noise_mix(base, p), q)
    once = states.white_noise_mix(base, 1.0 - (1.0 - p) * (1.0 - q))
    assert np.abs(twice.rho - once.rho).max() < 1e-12


# ---------------------------------------------------------------------------
# classical correlation state
# ---------------------------------------------------------------------------

def test_classical_state_diagonal():
    rho = states.classical_corr_state().rho
    assert np.abs(np.diag(rho) - np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])).max() == 0.0
    assert np.abs(rho - np.diag(np.diag(rho))).max() == 0.0


def test_classical_state_two_party_marginals():
    s = states.classical_corr_state()
    for keep in ([0, 1], [0, 2], [1, 2]):
        marg = tensor.partial_trace(s.rho, s.dims, keep)
        assert np.abs(marg - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-15


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------

def test_haar_pure_is_pure_and_reproducible():
    s1 = states.haar_pure((2, 2, 2), seed=42)
    s2 = states.haar_pure((2, 2, 2), seed=42)
    assert abs(s1.purity() - 1.0) < 1e-10
    assert np.array_equal(s1.rho, s2.rho)
    s3 = states.haar_pure((2, 2, 2), seed=43)
    assert not np.array_equal(s1.rho, s3.rho)


def test_haar_pure_marginal_concentrates_on_maximally_mixed():
    total = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for i in range(n):
        s = states.haar_pure((2, 2, 2), seed=7, index=i)
        total += tensor.partial_trace(s.rho, s.dims, [0])
    assert np.abs(total / n - np.eye(2) / 2).max() < 0.02


def test_random_mixed_rank_and_trace():
    pure = states.random_mixed((2, 2, 2), rank=1, seed=5)
    assert abs(pure.purity() - 1.0) < 1e-10
    full = states.random_mixed((2, 2, 2), rank=8, seed=5)
    lam = tensor.eigvals_hermitian(full.rho)
    assert lam[0] > 0.0
    for i in range(10):
        s = states.random_mixed((2, 2, 2), rank=i % 8 + 1, seed=11, index=i)
        assert abs(np.trace(s.rho) - 1.0) < 1e-10
        lam = np.sort(tensor.eigvals_hermitian(s.rho))[::-1]
        assert lam[i % 8 + 1 :].max(initial=0.0) < 1e-12  # rank bounded


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(ValueError):
        states.random_mixed((2, 2), 0, seed=1)
    with pytest.raises(ValueError):
        states.random_mixed((2, 2), 5, seed=1)


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_constructors_satisfy_state_invariants(seed):
    # construction itself validates Hermiticity, trace, and positivity
    states.haar_pure((2, 2, 2), seed)
    states.random_mixed((2, 2, 2), rank=int(seed % 8 + 1), seed=seed)
    states.white_noise_mix(states.w(3), (seed % 100) / 100.0)


def test_box_muller_moments():
    rng = states.generator(123)
    z = states.box_muller(rng, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_state_json_roundtrip(tmp_path):
    s = states.haar_pure((2, 2, 2), seed=9)
    obj = states.state_to_json(s)
    assert set(obj) == {"dims", "rho_re", "rho_im"}
    back = states.state_from_json(obj)
    assert back.dims == s.dims
    assert np.abs(back.rho - s.rho).max() == 0.0
    path = tmp_path / "state.json"
    states.save_state(s, path)
    loaded = states.load_state(path)
    assert np.abs(loaded.rho - s.rho).max() == 0.0
    # the file is plain JSON with the documented keys
    raw = json.loads(path.read_text())
    assert list(map(int, raw["dims"])) == [2, 2, 2]


def test_state_invariant_rejections():
    with pytest.raises(ValueError):
        states.MultipartiteState(np.diag([0.6, 0.6]), (2,))  # trace
    with pytest.raises(ValueError):
        states.MultipartiteState(np.array([[0.5, 0.5], [-0.5, 0.5]]), (2,))  # hermiticity
    with pytest.raises(ValueError):
        states.MultipartiteState(np.diag([1.5, -0.5]), (2,))  # positivity
    with pytest.raises(ValueError):
        states.MultipartiteState(np.eye(4) / 4, (2, 3))  # dims mismatch
    # non-finite entries: every comparison with NaN is false
    for rho in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([np.inf, -np.inf])):
        with pytest.raises(ValueError, match="not Hermitian"):
            states.MultipartiteState(rho, (2,))
    for psi in ([1.0, np.nan, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            states.MultipartiteState.from_vector(psi, (2, 2))
    with pytest.raises(ValueError, match="too large to check"):
        states.MultipartiteState(np.array([[0.5, 1e308], [1e308, 0.5]]), (2,))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 1e-320])
def test_from_vector_normalizes_huge_and_tiny_vectors(scale):
    # the norm of such a vector over- or underflows; it is rescaled first
    psi = np.array([1.0, 1.0j, 0.0, 1.0])
    expected = states.MultipartiteState.from_vector(psi, (2, 2)).rho
    rho = states.MultipartiteState.from_vector(scale * psi, (2, 2)).rho
    assert np.abs(rho - expected).max() < 1e-15


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_sample_states_deterministic_and_indexed():
    spec = states.EnsembleSpec("haar_pure", (2, 2), count=5)
    a = states.sample_states(spec, seed=3)
    b = states.sample_states(spec, seed=3)
    assert all(np.array_equal(x.rho, y.rho) for x, y in zip(a, b))
    # per-index substreams: sample i matches a direct draw at the same index
    direct = states.haar_pure((2, 2), seed=3, index=2)
    assert np.array_equal(a[2].rho, direct.rho)


def test_sample_states_families():
    mixed = states.sample_states(states.EnsembleSpec("random_mixed", (2, 2), 4, ranks=(2,)), 1)
    assert len(mixed) == 4
    named = states.sample_states(
        states.EnsembleSpec("named", name="ghz3", p_grid=(0.0, 0.5)), 0
    )
    assert len(named) == 2
    assert abs(named[0].purity() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        states.sample_states(states.EnsembleSpec("bogus"), 0)


@pytest.mark.parametrize("kwargs,message", [
    (dict(family="named"), "needs a state name"),
    (dict(family="haar_pure", count=0), "count must be >= 1"),
    (dict(family="random_mixed", count=-1), "count must be >= 1"),
])
def test_ensemble_spec_checks_itself(kwargs, message):
    with pytest.raises(ValueError, match=message):
        states.EnsembleSpec(**kwargs)
