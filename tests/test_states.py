import dataclasses
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
    lam = tensor._density_eig(marg.rho)[1]
    assert np.abs(lam - np.array([1 / 3, 2 / 3])).max() < 1e-12


def test_named_state_rejects_small_n():
    with pytest.raises(ValueError):
        states.ghz(1)
    with pytest.raises(ValueError):
        states.w(1)
    with pytest.raises(ValueError):
        states.named_state("bogus")
    with pytest.raises(ValueError, match="^unknown named state 3 "):
        states.named_state(3)


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
    lam = tensor._density_eig(mixed.rho)[1][::-1]
    expected = np.array([0.5 + 0.5 / 8] + [0.5 / 8] * 7)
    assert np.abs(lam - expected).max() < 1e-12


def test_white_noise_rejects_bad_p():
    with pytest.raises(ValueError):
        states.white_noise_mix(states.ghz(3), -0.1)
    with pytest.raises(ValueError):
        states.white_noise_mix(states.ghz(3), 1.1)
    with pytest.raises(ValueError, match=r"^noise weight p must lie in \[0\.0, 1\.0\], got True$"):
        states.white_noise_mix(states.w(3), True)  # once the maximally mixed state


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


def test_a_state_with_its_vector_is_pure_without_a_purity_product(monkeypatch):
    pure = states.haar_pure((2, 2, 2), seed=42)
    mixed = states.random_mixed((2, 2, 2), rank=2, seed=42)
    monkeypatch.setattr(tensor, "purity", lambda rho: pytest.fail("purity computed"))
    assert pure.is_pure()
    with pytest.raises(pytest.fail.Exception, match="purity computed"):
        mixed.is_pure()


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
    lam = tensor._density_eig(full.rho)[1]
    assert lam[0] > 0.0
    for i in range(10):
        s = states.random_mixed((2, 2, 2), rank=i % 8 + 1, seed=11, index=i)
        assert abs(np.trace(s.rho) - 1.0) < 1e-10
        lam = tensor._density_eig(s.rho)[1][::-1]
        assert lam[i % 8 + 1 :].max(initial=0.0) < 1e-12  # rank bounded


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(ValueError):
        states.random_mixed((2, 2), 0, seed=1)
    with pytest.raises(ValueError):
        states.random_mixed((2, 2), 5, seed=1)
    with pytest.raises(ValueError, match=r"^rank must be an integer in 1\.\.4, got 2\.7$"):
        states.random_mixed((2, 2), 2.7, seed=1)  # once drew rank 2


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


@pytest.mark.parametrize("build", [
    lambda dims: states.MultipartiteState(np.eye(4) / 4, dims),
    lambda dims: states.MultipartiteState.from_vector([1.0, 0.0, 0.0, 0.0], dims),
    lambda dims: states.MultipartiteState._pure([1.0, 0.0, 0.0, 0.0], dims),
    lambda dims: states.state_from_json({"dims": list(dims), "rho_re": np.eye(4) / 4, "rho_im": np.zeros((4, 4))}),
])
def test_every_constructor_checks_its_dims(build):
    # int() truncation used to build these on (2, 2); (2.0, 2) hashes like
    # (2, 2), so a cached check of (2, 2) must not let it through either
    assert build((2, 2)).dims == (2, 2)
    for dims, bad in [((2.5, 2), "2.5"), ((2.9, 2), "2.9"), ((2.6, 2), "2.6"), ((2.0, 2), "2.0"),
                      (("2", "2"), "'2'"), ((2, True), "True"), ((4, 1), "1")]:
        with pytest.raises(ValueError, match=f"^subsystem dimension must be an integer >= 2, got {bad}$"):
            build(dims)
    with pytest.raises(ValueError, match="dims must be nonempty"):
        build(())
    state = build((np.int64(2), np.uint8(2)))
    assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 1e-320])
def test_from_vector_normalizes_huge_and_tiny_vectors(scale):
    # the norm of such a vector over- or underflows; it is rescaled first
    psi = np.array([1.0, 1.0j, 0.0, 1.0])
    expected = states.MultipartiteState.from_vector(psi, (2, 2)).rho
    rho = states.MultipartiteState.from_vector(scale * psi, (2, 2)).rho
    assert np.abs(rho - expected).max() < 1e-15


# ---------------------------------------------------------------------------
# vector-checked states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 2, 2)])
def test_a_vector_checked_state_is_from_vectors_state(dims):
    d = math.prod(dims)
    rng = np.random.default_rng(d)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(20)]
    vectors += [1e200 * vectors[0], np.eye(d)[d - 1]]
    for psi in vectors:
        want = states.MultipartiteState.from_vector(psi, dims)
        got = states.MultipartiteState._pure(psi, dims)
        assert got.rho.tobytes() == want.rho.tobytes() and got.dims == want.dims == dims
        assert not got.rho.flags.writeable and want._psi is None
        assert np.array_equal(np.outer(got._psi, got._psi.conj()), got.rho)
    for i in range(5):
        got = states.haar_pure(dims, 6, i)
        want = states.MultipartiteState.from_vector(states.haar_vector(d, states.generator(6, i)), dims)
        assert got.rho.tobytes() == want.rho.tobytes() and got._psi is not None


def test_a_vector_checked_state_keeps_the_vector_read_only():
    state = states.haar_pure((2, 2), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state._psi = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError, match="read-only"):
        state._psi[0] = 1.0
    assert "_psi" not in repr(state)
    for psi in ([0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            states.MultipartiteState._pure(psi, (2, 2))
    with pytest.raises(ValueError, match="do not multiply to 4"):
        states.MultipartiteState._pure([1.0, 0.0, 0.0, 0.0], (2, 3))


def test_replacing_the_matrix_of_a_vector_checked_state_checks_it():
    state = states.haar_pure((2, 2), 0)
    with pytest.raises(ValueError, match="eigenvalue"):
        dataclasses.replace(state, rho=np.diag([1.5, -0.5, 0.0, 0.0]))
    other = dataclasses.replace(state, rho=np.eye(4) / 4)
    assert other._psi is None and np.array_equal(other.rho, np.eye(4) / 4)


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
    (dict(family="haar_pure", count=2.5), "count must be >= 1 and an integer, got 2.5"),
    (dict(family="haar_pure", count=True), "count must be >= 1 and an integer, got True"),
    (dict(family="random_mixed", ranks=()), "ranks must be nonempty"),
    (dict(family="random_mixed", ranks=(2.7,)), r"rank must be an integer in 1\.\.8, got 2\.7"),
    (dict(family="random_mixed", ranks=(9,)), r"rank must be an integer in 1\.\.8, got 9"),
    (dict(family="haar_pure", dims=(2.5, 2)), "dimension must be an integer >= 2, got 2.5"),
    (dict(family="haar_pure", dims=()), "dims must be nonempty"),
    (dict(family="haar_pure", p_grid=()), "^noise weight p list must be nonempty$"),
    (dict(family="haar_pure", p_grid=(0.5, 1.5)), r"noise weight p must lie in \[0\.0, 1\.0\], got 1\.5"),
    (dict(family="haar_pure", p_grid=(-0.1,)), r"noise weight p must lie in \[0\.0, 1\.0\], got -0\.1"),
    (dict(family="haar_pure", p_grid=(0.2, math.nan)), r"noise weight p must lie in \[0\.0, 1\.0\], got nan"),
    (dict(family="haar_pure", p_grid=(math.inf,)), r"noise weight p must lie in \[0\.0, 1\.0\], got inf"),
    (dict(family="named", name="w3", p_grid=("0.5", True)), r"p must lie in \[0\.0, 1\.0\], got '0\.5'"),
    (dict(family="haar_pure", p_grid=(0.5, True)), r"noise weight p must lie in \[0\.0, 1\.0\], got True"),
    (dict(family="haar_pure", p_grid=0.5), r"^noise weight p list must be iterable, got 0\.5$"),
    (dict(family="random_mixed", ranks=2), "^rank list must be iterable, got 2$"),
    (dict(family="haar_pure", dims=2), "^subsystem dimension list must be iterable, got 2$"),
    (dict(family="named", name=3), "^unknown named state 3 "),
    (dict(family="named", name="w3", ranks=(2,)), "ranks apply to random_mixed only, not named"),
    (dict(family="named", name="ghz2", dims=(3, 3), ranks=(2,)), "ranks apply to random_mixed only"),
    (dict(family="haar_pure", ranks=(2,)), "ranks apply to random_mixed only, not haar_pure"),
    (dict(family="named", name="w4", dims=(2, 2, 2)),
     r"named ensemble 'w4' is one state on dims \[2, 2, 2, 2\], got dims \[2, 2, 2\] and count 1"),
    (dict(family="named", name="w3", count=100), r"got dims \[2, 2, 2\] and count 100"),
    (dict(family="named", name="bogus"), "unknown named state 'bogus'"),
])
def test_ensemble_spec_checks_itself(kwargs, message):
    with pytest.raises(ValueError, match=message):
        states.EnsembleSpec(**kwargs)


def test_ensemble_spec_records_what_it_draws():
    spec = states.EnsembleSpec("random_mixed", [np.int64(2), 3], np.int64(4), ranks=[np.int8(2)])
    assert json.dumps(spec.describe()) == json.dumps(
        {"family": "random_mixed", "dims": [2, 3], "count": 4, "name": None, "ranks": [2],
         "p_grid": None})
    assert [s.dims for s in states.sample_states(spec, 0)] == [(2, 3)] * 4
    noisy = states.EnsembleSpec("haar_pure", (2, 2), 1, p_grid=[0, np.float32(0.5), 1])
    assert noisy.p_grid == (0.0, 0.5, 1.0)
    assert all(type(p) is float for p in noisy.p_grid)
    assert json.dumps(noisy.describe()["p_grid"]) == "[0.0, 0.5, 1.0]"


@pytest.mark.parametrize("name,dims", [("w4", [2, 2, 2, 2]), ("ghz2", [2, 2]), ("classical", [2, 2, 2])])
def test_a_named_ensemble_records_its_one_state(name, dims):
    spec = states.EnsembleSpec("named", name=name)
    assert spec.describe() == {"family": "named", "dims": dims, "count": 1, "name": name,
                               "ranks": None, "p_grid": None}
    assert states.EnsembleSpec("named", dims, 1, name=name) == spec
    drawn = states.sample_states(spec, 0)
    assert [list(s.dims) for s in drawn] == [dims] and len(drawn) == spec.count
    assert states.EnsembleSpec("haar_pure").describe()["dims"] == [2, 2, 2]
    assert states.EnsembleSpec("random_mixed").count == 100


@pytest.mark.parametrize("draw", [
    lambda dims: states.haar_pure(dims, 0),
    lambda dims: states.random_mixed(dims, 2, 0),
    lambda dims: states.sample_states(states.EnsembleSpec("haar_pure", dims, 1), 0),
])
def test_every_sampler_checks_its_dims(draw):
    # int() truncation used to turn 2.5 into 2 and draw on the wrong dims
    for dims, bad in [((2.5, 2), "2.5"), ((2, 1), "1"), ((2, True), "True"), ((2, "3"), "'3'")]:
        with pytest.raises(ValueError, match=f"^subsystem dimension must be an integer >= 2, got {bad}$"):
            draw(dims)
    with pytest.raises(ValueError, match="dims must be nonempty"):
        draw(())
    state = states.haar_pure((np.int64(2), np.uint8(3)), 0)
    assert state.dims == (2, 3) and all(type(d) is int for d in state.dims)


def draw_on_its_own(dims, rank, seed, index):
    """One sample's density matrix from its own substream and its own
    Box-Muller transform (rank None: a Haar pure state)."""
    d = math.prod(dims)
    v = states.haar_vector(d * (rank or 1), states.generator(seed, index))
    if rank is None:
        v = v / np.linalg.norm(v)  # from_vector normalises once more
        return np.outer(v, v.conj())
    v = v.reshape(d, rank)
    return v @ v.conj().T


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3), (2, 2, 2, 2)])
def test_sampled_states_are_the_checked_draws_bit_for_bit(dims):
    # sample_states skips the validation eigensolve and runs one Box-Muller
    # transform per rank (3 samples each here); each draw must still equal
    # the public constructor's state and pass the density rule
    d = math.prod(dims)
    for seed in range(20):
        pure = states.sample_states(states.EnsembleSpec("haar_pure", dims, 3 * d), seed)
        mixed = states.sample_states(
            states.EnsembleSpec("random_mixed", dims, 3 * d, ranks=tuple(range(1, d + 1))), seed)
        checked = [states.haar_pure(dims, seed, index=i) for i in range(3 * d)]
        checked += [states.random_mixed(dims, i % d + 1, seed, index=i) for i in range(3 * d)]
        alone = [draw_on_its_own(dims, None, seed, i) for i in range(3 * d)]
        alone += [draw_on_its_own(dims, i % d + 1, seed, i) for i in range(3 * d)]
        for got, want, own in zip(pure + mixed, checked, alone, strict=True):
            assert got.rho.tobytes() == want.rho.tobytes() == own.tobytes()
            assert got.dims == want.dims == dims
            assert not got.rho.flags.writeable
            tensor._density_eig(got.rho)


@pytest.mark.parametrize("rank", [None, 64])
def test_a_six_qubit_draw_keeps_its_bits(rank):
    # rank 64 draws Haar vectors of length 4096: the stacked normalisation
    # must sum each row in np.linalg.norm's order at that length too
    dims = (2,) * 6
    spec = (states.EnsembleSpec("haar_pure", dims, 2) if rank is None
            else states.EnsembleSpec("random_mixed", dims, 2, ranks=(rank,)))
    for i, got in enumerate(states.sample_states(spec, 4)):
        want = states.haar_pure(dims, 4, i) if rank is None else states.random_mixed(dims, rank, 4, i)
        assert got.rho.tobytes() == want.rho.tobytes() == draw_on_its_own(dims, rank, 4, i).tobytes()


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 3]
KEY_INDICES = [0, 99, 2**32 - 1, 2**32, 2**70]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_bulk_keys_are_the_seed_sequence_keys(seed):
    # one call for indices of one, two and three 32-bit words, in any order
    indices = KEY_INDICES + KEY_INDICES[::-1]
    keys = states._keys(seed, indices)
    assert keys.shape == (len(indices), 2) and keys.dtype == np.uint64
    for i, key in zip(indices, keys):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
        assert key.tolist() == want.tolist(), (seed, i)
    assert states._keys(seed, []).shape == (0, 2)


@pytest.mark.parametrize("seed,indices,message", [
    (-1, [0], "seed must be a non-negative integer, got -1"),
    (2.7, [0], "seed must be a non-negative integer, got 2.7"),
    (True, [0], "seed must be a non-negative integer, got True"),
    (0, [0, -1], "stream must be a non-negative integer, got -1"),
    (0, [2.0], "stream must be a non-negative integer, got 2.0"),
    (0, [False], "stream must be a non-negative integer, got False"),
])
def test_bulk_keys_check_their_inputs_first(seed, indices, message):
    # a negative seed never reaches the hash, whose word loop would not end
    with pytest.raises(ValueError, match=f"^{message}$"):
        states._keys(seed, indices)


@pytest.mark.parametrize("draw,bad", [
    (lambda: states.generator(2.7), "2.7"),
    (lambda: states.generator(-1), "-1"),
    (lambda: states.generator(True), "True"),
    (lambda: states.haar_pure((2, 2), seed=-1), "-1"),
    (lambda: states.sample_states(states.EnsembleSpec("haar_pure", (2, 2), 2), 2.7), "2.7"),
])
def test_seed_must_be_a_non_negative_integer(draw, bad):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {bad}$"):
        draw()


def test_stream_must_be_a_non_negative_integer():
    with pytest.raises(ValueError, match="^stream must be a non-negative integer, got -1$"):
        states.random_mixed((2, 2), 2, seed=0, index=-1)
    a = states.generator(np.uint32(3), np.int64(1)).random(4)
    assert np.array_equal(a, states.generator(3, 1).random(4))
