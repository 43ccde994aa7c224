"""Named states, noise mixtures, and seeded random state ensembles.

Randomness contract: every sampler draws from a Philox counter-based bit
generator keyed through ``numpy.random.SeedSequence(entropy=seed,
spawn_key=stream)``, and Gaussian variates come from an explicit Box-Muller
transform of Philox uniforms. The same seed therefore reproduces an ensemble
bit for bit, and per-sample substreams make parallel sampling
schedule-independent. ``haar_pure`` and ``random_mixed`` draw one state
through ``generator(seed, index)``. ``sample_states`` draws the same bits in
bulk: it computes the SeedSequence-compatible keys of all its substreams at
once (``_keys``), re-keys one Philox per sample, and runs one Box-Muller
transform and one stacked normalisation for all samples of one vector
length. Both steps are elementwise per row, so each sample keeps the bits it
has on its own.

A state is checked once, when it is constructed (``tensor._density_eig``).
States that are density matrices by construction skip that eigensolve: the
Haar and induced draws of ``sample_states`` are wrapped read-only and the
fields of the ``EnsembleSpec`` are checked, and the states of ``haar_pure``
and the counterexample search are checked by their unit vector (``_pure``).
``from_vector`` and the named states keep the matrix check, because the
benchmark pins the validation eigensolves of the 6-qubit named states.

The states of ``haar_pure``, of the counterexample search and the Haar
draws of ``sample_states`` keep their unit vector as ``_psi``, and
``measures`` scores them from it (see ``measures._reduced``); every other
state is scored from its matrix.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor
from .tensor import _dims, _indices, _integer

PURITY_TOL = 1e-9


@dataclass(frozen=True)
class MultipartiteState:
    """Density matrix plus ordered subsystem dimensions.

    Invariants checked on construction, by the one density rule of
    ``tensor._density_eig``: Hermitian within 1e-10, unit trace within 1e-9,
    no eigenvalue below -1e-9 (``tensor.POSITIVITY_TOL``), and integer dims
    >= 2 (``tensor._dims``, the dims rule of every kernel). The stored
    matrix is a read-only copy, so no caller can change a state through its
    input array. A state built by ``_pure`` keeps its unit vector read-only
    as ``_psi`` and skips the eigensolve and copy.
    """

    rho: np.ndarray
    dims: tuple[int, ...]
    _psi: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = tensor.as_matrix(self.rho)
        dims = tensor.check_dims(rho.shape[0], self.dims)
        if self._psi is None:
            tensor._density_eig(rho)
            rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _trusted(cls, rho: np.ndarray, dims: tuple[int, ...],
                 psi: np.ndarray | None = None) -> "MultipartiteState":
        """Wrap a fresh density matrix that is valid by construction, on
        checked ``dims``, read-only and without the check; ``psi``, if
        given, is its unit vector and is kept read-only as ``_psi``."""
        state = object.__new__(cls)
        rho.flags.writeable = False
        object.__setattr__(state, "rho", rho)
        object.__setattr__(state, "dims", dims)
        if psi is not None:
            psi.flags.writeable = False
            object.__setattr__(state, "_psi", psi)
        return state

    @classmethod
    def _pure(cls, psi, dims) -> "MultipartiteState":
        """``from_vector``'s state, checked by its unit vector, whose outer
        product is a density matrix: ``__post_init__`` checks the dims only."""
        v = _unit_vector(psi)
        state = cls._trusted(np.outer(v, v.conj()), dims, v)
        state.__post_init__()
        return state

    @classmethod
    def from_vector(cls, psi, dims) -> "MultipartiteState":
        """Rank-1 density matrix of a (normalized) state vector."""
        v = _unit_vector(psi)
        return cls(np.outer(v, v.conj()), tuple(dims))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        return tensor.purity(self.rho)

    def is_pure(self) -> bool:
        """Purity >= 1 - 1e-9; a state that carries its unit vector is pure."""
        return self._psi is not None or self.purity() >= 1.0 - PURITY_TOL

    def marginal(self, keep) -> "MultipartiteState":
        keep_idx = sorted(set(_indices(keep, self.n_subsystems)))
        rho = tensor.partial_trace(self.rho, self.dims, keep_idx)
        return MultipartiteState(rho, tuple(self.dims[i] for i in keep_idx))


def _unit_vector(psi) -> np.ndarray:
    """``psi`` as a new flat complex unit vector, rescaled first if its norm
    squares out of the float range; ValueError if it is zero or non-finite."""
    v = np.asarray(psi, dtype=complex).ravel()
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        norm = np.linalg.norm(v)
    if not 2.0**-500 < norm < 2.0**500:  # zero, non-finite, or squares out of float range
        scale = np.abs(v.view(float)).max(initial=0.0)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"state vector norm must be positive and finite, got {norm}")
        return _unit_vector((v.view(float) / scale).view(complex))
    return v / norm


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def _seed(seed) -> int:
    """``seed`` as a non-negative int, else ValueError."""
    return _integer(seed, "seed must be a non-negative integer", 0)


def _stream(i) -> int:
    """A substream index as a non-negative int, else ValueError."""
    return _integer(i, "stream must be a non-negative integer", 0)


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for the non-negative integer ``seed``; extra
    non-negative integers select a substream."""
    ss = np.random.SeedSequence(entropy=_seed(seed), spawn_key=tuple(map(_stream, stream)))
    return np.random.Generator(np.random.Philox(ss))


# numpy.random.SeedSequence's hash: its mixing and output constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, init: int, mult: int, t: int) -> np.ndarray:
    """SeedSequence's hashmix of uint32 ``value`` for the four pool words at
    once: word j takes hash constants number t + j and t + j + 1 of the
    sequence ``init * mult**t``, so the result has a leading axis of 4."""
    h = np.array([init * pow(mult, t + j, 1 << 32) & _MASK32 for j in range(5)], np.uint32)[:, None]
    value = (value ^ h[:-1]) * h[1:]  # uint32 arithmetic wraps, as the hash does
    return value ^ value >> 16


def _keys(seed: int, indices) -> np.ndarray:
    """The Philox keys (k, 2) of ``SeedSequence(entropy=seed,
    spawn_key=(i,))`` for each index i, by numpy's documented hash.
    ``SeedSequence(seed)`` mixes the seed's words into the pool once; each
    index then adds its own 32-bit words, vectorised over the indices, and
    the pool is hashed into the key."""
    seed = _seed(seed)
    rest = np.array([_stream(i) for i in indices], dtype=object)
    pool = np.repeat(np.random.SeedSequence(seed).pool[:, None], len(rest), axis=1)
    t = 4 * max(4, -(-seed.bit_length() // 32))  # hashes spent on the zero-padded seed
    live = np.ones(len(rest), bool)
    while live.any():  # the next word of every index that has one left
        new = _MIX_L * pool - _MIX_R * _hashmix((rest & _MASK32).astype(np.uint32), _INIT_A, _MULT_A, t)
        pool = np.where(live, new ^ new >> 16, pool)
        rest, t = rest >> 32, t + 4
        live = rest > 0
    key = _hashmix(pool, _INIT_B, _MULT_B, 0).astype(np.uint64)
    return (key[0::2] | key[1::2] << 32).T


def box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal variates via Box-Muller from Philox uniforms."""
    half = (n + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    return _box_muller(u1, u2)[:n]


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The Box-Muller transform of uniforms u1, u2 of shape (..., h): the
    cosine variates, then the sine variates, along the last axis. Each
    variate depends on its own two uniforms only, so a stack of rows gives
    each row's own bits."""
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], so the log is finite
    return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)], axis=-1)


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector from a complex standard Gaussian (Haar by unitary invariance)."""
    z = box_muller(rng, 2 * dim)
    v = z[:dim] + 1j * z[dim:]
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# named states and mixtures
# ---------------------------------------------------------------------------

def ghz(n: int) -> MultipartiteState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2) as a density matrix."""
    if n < 2:
        raise ValueError("ghz requires at least 2 parties")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return MultipartiteState.from_vector(v, (2,) * n)


def w(n: int) -> MultipartiteState:
    """n-qubit W state: equal superposition of all single-excitation basis states."""
    if n < 2:
        raise ValueError("w requires at least 2 parties")
    v = np.zeros(2**n, dtype=complex)
    for j in range(n):
        v[1 << j] = 1.0 / math.sqrt(n)
    return MultipartiteState.from_vector(v, (2,) * n)


def white_noise_mix(state: MultipartiteState, p: float) -> MultipartiteState:
    """(1-p) rho + p I/d, the white-noise admixture with weight p in [0, 1]."""
    p = _noise_weight(p)
    d = state.dim
    rho = (1.0 - p) * state.rho + p * np.eye(d) / d
    return MultipartiteState(rho, state.dims)


def _noise_weight(p) -> float:
    """``float(p)`` if it lies in [0, 1], else ValueError (NaN included)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p = {p} outside [0, 1]")
    return p


def classical_corr_state() -> MultipartiteState:
    """Three-qubit maximally classically-correlated mixture of |000> and |111>."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    return MultipartiteState(rho, (2, 2, 2))


def haar_pure(dims, seed: int, index: int = 0) -> MultipartiteState:
    """Haar-random pure state on the given subsystem dimensions.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions, integers >= 2.
    seed : int
        Ensemble seed; the same seed reproduces the state bit for bit.
    index : int, optional
        Sample index selecting an independent substream of the seed, so that
        ensembles can be generated in any order or in parallel.
    """
    dims = _dims(dims)
    return MultipartiteState._pure(haar_vector(math.prod(dims), generator(seed, index)), dims)


def random_mixed(dims, rank: int, seed: int, index: int = 0) -> MultipartiteState:
    """Induced-measure random mixed state of rank <= ``rank``.

    A Haar pure state is drawn on system x ancilla with ancilla dimension
    ``rank`` and the ancilla is traced out.
    """
    dims = _dims(dims)
    d = math.prod(dims)
    rank = _integer(rank, f"rank must be an integer in 1..{d}", 1, d)
    v = haar_vector(d * rank, generator(seed, index)).reshape(d, rank)
    return MultipartiteState(v @ v.conj().T, dims)


def _draw(dims: tuple[int, ...], rank: int | None, seed: int, indices):
    """(rho, psi): the density matrices (k, d, d), unchecked, of
    ``haar_pure`` (rank None) or ``random_mixed`` at each sample index, and
    for ``haar_pure`` their unit vectors (k, d), else None. They are drawn
    in bulk: one Philox re-keyed per sample (counter 0, empty buffer) to the
    key of substream (seed, i), one Box-Muller transform and one stacked
    normalisation for them all."""
    d = math.prod(dims)
    n = d * (rank or 1)  # the length of each Haar vector
    bits = np.random.Philox(0)
    rng, state = np.random.Generator(bits), bits.state
    u = np.empty((len(indices), 2, n))
    for key, row in zip(_keys(seed, indices), u):
        state["state"]["key"] = key
        bits.state = state
        rng.random(out=row)
    z = _box_muller(u[:, 0], u[:, 1])
    v = z[:, :n] + 1j * z[:, n:]
    # haar_vector's normalisation, and for a pure state from_vector's second
    # one; each row's dot products sum in np.linalg.norm's order
    for _ in range(2 if rank is None else 1):
        re, im = v.real, v.imag
        v = v / np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    if rank is None:
        return v[:, :, None] * v.conj()[:, None, :], v
    v = v.reshape(-1, d, rank)
    return v @ v.conj().swapaxes(-1, -2), None


# ---------------------------------------------------------------------------
# serialization (the JSON schema used by the CLI for state import/export)
# ---------------------------------------------------------------------------

def state_to_json(state: MultipartiteState) -> dict:
    """JSON object {dims, rho_re, rho_im} at full double precision."""
    return {
        "dims": list(state.dims),
        "rho_re": np.real(state.rho).tolist(),
        "rho_im": np.imag(state.rho).tolist(),
    }


def state_from_json(obj: dict) -> MultipartiteState:
    rho = np.asarray(obj["rho_re"], dtype=float) + 1j * np.asarray(obj["rho_im"], dtype=float)
    return MultipartiteState(rho, tuple(obj["dims"]))


def save_state(state: MultipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(state_to_json(state), f)


def load_state(path) -> MultipartiteState:
    with open(path, encoding="utf-8") as f:
        return state_from_json(json.load(f))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

_NAMED_RE = re.compile(r"(ghz|w)(\d+)")


def named_state(name: str) -> MultipartiteState:
    """Resolve 'ghzN', 'wN' or 'classical' to a state."""
    key = name.strip().lower()
    if key == "classical":
        return classical_corr_state()
    m = _NAMED_RE.fullmatch(key)
    if m is None:
        raise ValueError(f"unknown named state {name!r} (expected ghzN, wN or classical)")
    n = int(m.group(2))
    return ghz(n) if m.group(1) == "ghz" else w(n)


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of a reproducible state ensemble.

    family is one of "haar_pure", "random_mixed" or "named". For
    "random_mixed" the ranks tuple is cycled over samples; for "named" the
    single base state named by ``name`` is used. If ``p_grid`` is set, every
    base state is expanded into its white-noise family over that grid.

    The fields are checked on construction, so ``describe`` records what is
    drawn: integer dims >= 2, an integer count >= 1, ranks None (every
    rank) or a nonempty tuple of integers in 1..prod(dims), and p_grid None
    (no noise) or a nonempty tuple of floats in [0, 1]. numpy integers
    pass; bools do not. dims and count default per family: (2, 2, 2) and
    100 for a random family, the named state's dims and 1 for "named",
    which takes no other dims or count. Only "random_mixed" takes ranks.
    """

    family: str
    dims: tuple[int, ...] | None = None
    count: int | None = None
    name: str | None = None
    ranks: tuple[int, ...] | None = None
    p_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in ("haar_pure", "random_mixed", "named"):
            raise ValueError(f"unknown ensemble family {self.family!r}")
        if self.ranks is not None and self.family != "random_mixed":
            raise ValueError(f"ranks apply to random_mixed only, not {self.family}")
        drawn = ((2, 2, 2), 100)
        if self.family == "named":
            if self.name is None:
                raise ValueError("named ensemble needs a state name")
            drawn = (named_state(self.name).dims, 1)
        dims = drawn[0] if self.dims is None else _dims(self.dims)
        count = drawn[1] if self.count is None else _integer(
            self.count, "ensemble count must be >= 1 and an integer", 1)
        if self.family == "named" and (dims, count) != drawn:
            raise ValueError(f"named ensemble {self.name!r} is one state on dims {list(drawn[0])}, "
                             f"got dims {list(dims)} and count {count}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "count", count)
        if self.ranks is not None:
            d = math.prod(dims)
            ranks = tuple(_integer(r, f"rank must be an integer in 1..{d}", 1, d) for r in self.ranks)
            if not ranks:
                raise ValueError("ensemble ranks must be nonempty, or None for every rank")
            object.__setattr__(self, "ranks", ranks)
        if self.p_grid is not None:
            p_grid = tuple(_noise_weight(p) for p in self.p_grid)
            if not p_grid:
                raise ValueError("ensemble p_grid must be nonempty, or None for no noise")
            object.__setattr__(self, "p_grid", p_grid)

    def describe(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(self).items()}


def sample_states(spec: EnsembleSpec, seed: int) -> list[MultipartiteState]:
    """Materialize an ensemble; sample i uses substream (seed, i) and equals
    ``haar_pure`` or ``random_mixed`` at index i bit for bit. The draws are
    trusted (see the module docstring); noise mixtures are checked."""
    if spec.family == "named":
        base = [named_state(spec.name)]
    else:
        d = math.prod(spec.dims)
        ranks = (None,) if spec.family == "haar_pure" else spec.ranks or range(1, d + 1)
        by_rank: dict[int | None, list[int]] = {}
        for i in range(spec.count):
            by_rank.setdefault(ranks[i % len(ranks)], []).append(i)
        base = [None] * spec.count
        for rank, idx in by_rank.items():
            rho, psi = _draw(spec.dims, rank, seed, idx)
            for k, i in enumerate(idx):
                base[i] = MultipartiteState._trusted(rho[k], spec.dims, None if psi is None else psi[k])
    if spec.p_grid:
        base = [white_noise_mix(s, p) for s in base for p in spec.p_grid]
    return base
