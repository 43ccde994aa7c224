"""Named states, noise mixtures, and seeded random state ensembles.

Randomness contract: every sampler draws from a Philox counter-based bit
generator keyed through ``numpy.random.SeedSequence(entropy=seed,
spawn_key=stream)``, and Gaussian variates come from an explicit Box-Muller
transform of Philox uniforms. The same seed therefore reproduces an ensemble
bit for bit, and per-sample substreams make parallel sampling
schedule-independent.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor

PURITY_TOL = 1e-9


@dataclass(frozen=True)
class MultipartiteState:
    """Density matrix plus ordered subsystem dimensions.

    Invariants checked on construction, by the one density rule of
    ``tensor._density_eig``: Hermitian within 1e-10, unit trace within 1e-9,
    no eigenvalue below -1e-9 (``tensor.POSITIVITY_TOL``). The stored matrix
    is a read-only copy, so no caller can change a state through its input
    array.
    """

    rho: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        rho = tensor.as_matrix(self.rho)
        dims = tensor.check_dims(rho.shape[0], self.dims)
        tensor._density_eig(rho)
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_vector(cls, psi, dims) -> "MultipartiteState":
        """Rank-1 density matrix of a (normalized) state vector."""
        v = np.asarray(psi, dtype=complex).ravel()
        with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
            norm = np.linalg.norm(v)
        if not 2.0**-500 < norm < 2.0**500:  # zero, non-finite, or squares out of float range
            scale = np.abs(v.view(float)).max(initial=0.0)
            if not 0.0 < scale < math.inf:
                raise ValueError(f"state vector norm must be positive and finite, got {norm}")
            return cls.from_vector((v.view(float) / scale).view(complex), dims)
        v = v / norm
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
        return self.purity() >= 1.0 - PURITY_TOL

    def marginal(self, keep) -> "MultipartiteState":
        keep_idx = sorted({int(k) for k in keep})
        rho = tensor.partial_trace(self.rho, self.dims, keep_idx)
        return MultipartiteState(rho, tuple(self.dims[i] for i in keep_idx))


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def generator(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for ``seed``; extra integers select a substream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal variates via Box-Muller from Philox uniforms."""
    half = (n + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], so the log is finite
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n]


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
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p = {p} outside [0, 1]")
    d = state.dim
    rho = (1.0 - p) * state.rho + p * np.eye(d) / d
    return MultipartiteState(rho, state.dims)


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
        Subsystem dimensions.
    seed : int
        Ensemble seed; the same seed reproduces the state bit for bit.
    index : int, optional
        Sample index selecting an independent substream of the seed, so that
        ensembles can be generated in any order or in parallel.
    """
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    rng = generator(seed, index)
    return MultipartiteState.from_vector(haar_vector(d, rng), dims)


def random_mixed(dims, rank: int, seed: int, index: int = 0) -> MultipartiteState:
    """Induced-measure random mixed state of rank <= ``rank``.

    A Haar pure state is drawn on system x ancilla with ancilla dimension
    ``rank`` and the ancilla is traced out.
    """
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    rank = int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} outside 1..{d}")
    rng = generator(seed, index)
    v = haar_vector(d * rank, rng).reshape(d, rank)
    rho = v @ v.conj().T
    return MultipartiteState(rho, dims)


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
    return MultipartiteState(rho, tuple(int(d) for d in obj["dims"]))


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
    """

    family: str
    dims: tuple[int, ...] = (2, 2, 2)
    count: int = 100
    name: str | None = None
    ranks: tuple[int, ...] | None = None
    p_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in ("haar_pure", "random_mixed", "named"):
            raise ValueError(f"unknown ensemble family {self.family!r}")
        if self.family == "named" and self.name is None:
            raise ValueError("named ensemble needs a state name")
        if self.count < 1:
            raise ValueError(f"ensemble count must be >= 1, got {self.count}")

    def describe(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(self).items()}


def sample_states(spec: EnsembleSpec, seed: int) -> list[MultipartiteState]:
    """Materialize an ensemble; sample i uses substream (seed, i)."""
    if spec.family == "named":
        base = [named_state(spec.name)]
    elif spec.family == "haar_pure":
        base = [haar_pure(spec.dims, seed, index=i) for i in range(spec.count)]
    else:
        d = math.prod(spec.dims)
        ranks = spec.ranks or tuple(range(1, d + 1))
        base = [random_mixed(spec.dims, ranks[i % len(ranks)], seed, index=i) for i in range(spec.count)]
    if spec.p_grid:
        base = [white_noise_mix(s, p) for s in base for p in spec.p_grid]
    return base
