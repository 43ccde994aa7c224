"""Bipartite quantum-correlation measures evaluated on cuts of a multipartite state.

A ``Cut`` names two disjoint groups of subsystems; everything outside the cut
is traced out first. ``evaluate`` dispatches a ``MeasureKind`` to the right
formula and raises ``MeasureUndefinedError`` when no exact expression exists
for the requested cut (it never falls back silently).

Conventions: logarithms are base 2 throughout (values in bits / ebits),
negativity is stored unnormalized as N = (||rho^T_A||_1 - 1)/2 and doubled
when the kind is flagged normalized, and measure values below 1e-12 are
reported as exactly 0 so that small powers Q^alpha stay stable.

Quantum discord and classical correlation work on the Bloch (Fano) form of
a two-qubit state, its local Bloch vectors a, b and correlation matrix T
(Luo, PRA 77, 042303 (2008)): a projective measurement along a unit vector
n costs a few flops, so the measurement optimizer never builds projectors.

The index bookkeeping of a cut (which subsystems to keep, where each side
sits in the reduced state, the side dimensions) is cached per (dimensions,
cut), as are the trace and transpose plans of ``tensor``.

Private code sees stacks (m, d, d) of density matrices on shared subsystem
dimensions only. ``_reduced`` reduces a stack to a cut and returns the
reduced stack with the cut's plan (rdims, a_pos, b_pos, da, db);
``_score_stack`` scores one reduced stack, each row taking its own branch
(Wootters, pure cut, rank-2 roof or undefined), with one call of the
branch's kernel for all the rows that take it. ``evaluate`` runs the two
on a stack of one, and ``monogamy._cut_table`` runs ``_score_stack`` once
per plan on every cut that shares it. A stacked numpy call gives the same
bits as one call per matrix, so a value does not depend on its stack. One
matrix becomes a float only in the public kernels
(``concurrence_two_qubit``, ``tangle_rank2`` and ``eof_two_qubit`` also
take stacks). A checked state's matrix is exactly Hermitian, and so are
the marginals and partial transposes taken from it: they are neither
checked nor symmetrized again. They also keep its dtype, float64 for a
real state (see ``tensor``), so every eigensolve of a real state runs in
real arithmetic; a stack mixes no dtypes, since ``monogamy._cut_table``
stacks real and complex states apart.

A reduced stack takes one of three forms, told apart by its number of
axes: matrices (m, d, d), the marginals of the cut; Schmidt coefficients
(m, k); and the vector form (m, da, db, k). A state that carries its unit
vector (``MultipartiteState._psi``: the states of ``haar_pure``, of the
counterexample search and the Haar draws of ``sample_states``) is reduced
from the vector F, its axes permuted to side A, side B, traced: a cut that
covers the whole state gives the Schmidt coefficients of F (one stacked
svd), a whole 2x2 cut keeps the matrix, and any other cut gives F itself.
The negativity family contracts F with its conjugate into the partially
transposed marginal in one einsum. Concurrence with side A one qubit and
side B more takes the marginal's spectrum and support from one svd of F
(``_qubit_cut_concurrence``), and its rank-2 roof from that support
(``_roof``, the core that ``tangle_rank2`` runs after its checks); every
other branch takes the marginal from one einsum. Either marginal is
exactly Hermitian, like the matrix form.
The Schmidt and vector forms carry the plan of the two-party cut
(da, db), side A first. Every form takes the branch, and raises the error,
of the matrix path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor
from .states import MultipartiteState, PURITY_TOL

FLUSH_TOL = 1e-12
RANK_TOL = 1e-9
_EIG_NOISE = 16.0 * np.finfo(float).eps  # relative noise floor of a 4x4 eigensolve

_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
# sy x sy is antidiagonal, so (sy x sy) M = M[::-1] * _FLIP_ROWS
_FLIP_ROWS = np.array((-1.0, 1.0, 1.0, -1.0))[:, None]
_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    _PAULI_Y,
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# half of sigma_u[k, l] sigma_v[c, a] at [a, k, c, l, u, v]: contracted with
# a support and its conjugate, half of tr(Phi(sigma_u) sigma_v) (see _roof)
_PHI_PAULI = 0.5 * np.einsum("ukl,vca->akcluv", _PAULI, _PAULI)
_MINKOWSKI = np.array((1.0, -1.0, -1.0, -1.0))  # 4 det of (c0 + c.sigma)/2 is c0^2 - |c|^2

# Discord / classical-correlation optimizer settings: coarse measurement grid
# followed by coordinate-wise golden-section refinement (target accuracy 1e-4).
_GRID_POINTS = 64
_REFINE_ITERATIONS = 30
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class MeasureUndefinedError(ValueError):
    """The requested measure has no exact expression on the requested cut."""


class Measure(str, Enum):
    CONCURRENCE = "concurrence"
    NEGATIVITY = "negativity"
    LOG_NEGATIVITY = "lognegativity"
    EOF = "eof"
    DISCORD = "discord"
    CLASSICAL_CORRELATION = "classical"

    @classmethod
    def from_string(cls, name: str) -> "Measure":
        if isinstance(name, cls):  # str() of a member is "Measure.EOF", not its value
            return name
        key = str(name).strip().lower().replace("-", "").replace("_", "")
        aliases = {m.value: m for m in cls}
        aliases.update(logneg=cls.LOG_NEGATIVITY, classicalcorrelation=cls.CLASSICAL_CORRELATION)
        if key not in aliases:
            raise ValueError(f"unknown measure {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class MeasureKind:
    """Measure selector: which correlation measure, and whether to rescale it
    so that a maximally entangled qubit pair scores 1 (only negativity
    actually changes under the flag; all other measures already score 1)."""

    tag: Measure
    normalized: bool = False

    def __post_init__(self):
        # a str tag names the measure; an unknown name raises ValueError
        if not isinstance(self.tag, Measure):
            object.__setattr__(self, "tag", Measure.from_string(str(self.tag)))
        if not isinstance(self.normalized, (bool, np.bool_)):  # "false" would read as true
            raise ValueError(f"normalized must be a bool, got {self.normalized!r}")
        object.__setattr__(self, "normalized", bool(self.normalized))

    def label(self) -> str:
        return self.tag.value


@dataclass(frozen=True)
class Cut:
    """Bipartition side_a : side_b of a subset of the subsystems.

    Order within each side is irrelevant; subsystems on neither side are
    traced out before the measure is evaluated.
    """

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        # the range 0..n-1 is checked where the cut meets a state (_cut_plan)
        a, b = (tensor._integers(side, "cut index", 0)
                for side in (self.side_a, self.side_b))
        if not a or not b:
            raise ValueError("both sides of a cut must be nonempty")
        if set(a) & set(b):
            raise ValueError(f"cut sides overlap: {a} vs {b}")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("duplicate subsystem index in cut")
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)


def _flush(x: float) -> float:
    return 0.0 if abs(x) < FLUSH_TOL else float(x)


@functools.lru_cache(maxsize=256)
def _cut_plan(dims: tuple[int, ...], side_a: tuple[int, ...], side_b: tuple[int, ...]):
    """(keep, perm, rdims, a_pos, b_pos, da, db): the subsystems kept, in
    index order (None when the cut covers them all); the axis permutation of
    a stack of vectors (m, *dims) that puts side A, then side B, then the
    traced subsystems; the kept dimensions, the positions of each side
    among them, and each side's total dimension."""
    n = len(dims)
    keep = tuple(sorted(tensor._indices(side_a + side_b, n)))
    rdims = tuple(dims[i] for i in keep)
    a_pos = tuple(sorted(keep.index(i) for i in side_a))
    b_pos = tuple(sorted(keep.index(i) for i in side_b))
    da = math.prod(rdims[i] for i in a_pos)
    db = math.prod(rdims[i] for i in b_pos)
    traced = tuple(i for i in range(n) if i not in keep)
    order = (*sorted(side_a), *sorted(side_b), *traced)
    return (keep if traced else None), (0, *(1 + i for i in order)), rdims, a_pos, b_pos, da, db


def _reduced(rho: np.ndarray, dims, cut: Cut, psi: np.ndarray | None = None):
    """(red, rdims, a_pos, b_pos, da, db): the stack (m, d, d) on ``dims``
    reduced to side_a + side_b, then the cut's plan. ``red.ndim`` tells its
    form: matrices (m, d, d), the marginals in index order; Schmidt
    coefficients (m, k); or the vector form (m, da, db, k).

    With ``psi``, the unit vectors (m, d) of the stack, F is the vectors
    with their axes permuted to side A, side B, traced, grouped as (m, da,
    db, k). A whole cut gives the Schmidt coefficients of F from one
    stacked svd, and any other cut gives F itself, the vector form
    (``_marginal`` contracts it); both carry the plan of the two-party cut
    (da, db), whose side A is a single qubit exactly when the cut's is. A
    whole 2x2 cut keeps ``rho``, so that Wootters' formula and the Bloch
    form still see the matrix.
    """
    keep, perm, *plan = _cut_plan(dims, cut.side_a, cut.side_b)
    da, db = plan[-2:]
    if psi is None or (keep is None and da * db == 4):
        return (rho if keep is None else tensor.partial_trace(rho, dims, keep)), *plan
    f = psi.reshape(-1, *dims).transpose(perm).reshape(len(psi), da, db, -1)
    return (np.linalg.svd(f[..., 0], compute_uv=False) if keep is None else f), (da, db), (0,), (1,), da, db


def _marginal(f: np.ndarray, transposed: bool = False) -> np.ndarray:
    """The marginal (m, da db, da db) of each row of a stack in vector form
    (m, da, db, k), side A first, or with ``transposed`` its partial
    transpose on side A, from one einsum. Entries (i, j) and (j, i) sum the
    same products in the same order, each the conjugate of the other, so
    the result is exactly Hermitian."""
    m, da, db, _ = f.shape
    subscripts = "Mcbk,Madk->Mabcd" if transposed else "Mabk,Mcdk->Mabcd"
    return np.einsum(subscripts, f, f.conj()).reshape(m, da * db, da * db)


def _matrices(red: np.ndarray) -> np.ndarray:
    """A reduced stack with the vector form replaced by its marginals; the
    matrix form and Schmidt coefficients pass as they are."""
    return _marginal(red) if red.ndim == 4 else red


def _state_reduced(state: MultipartiteState, cut: Cut):
    """``_reduced`` of one state as a stack of one, from its unit vector
    when it carries one."""
    psi = None if state._psi is None else state._psi[None]
    return _reduced(state.rho[None], state.dims, cut, psi)


def _require_two_qubit_density(rho: np.ndarray):
    """A checked stack (m, 4, 4) of two-qubit density matrices, with the
    ascending eigenvalues and eigenvectors of the eigensolve that checks it."""
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got {rho.shape[-2:]}")
    return tensor._density_eig(rho, vectors=True)


# ---------------------------------------------------------------------------
# concurrence family
# ---------------------------------------------------------------------------

def concurrence_two_qubit(rho):
    """Wootters concurrence of a two-qubit density matrix, or of each matrix
    of a stack (..., 4, 4).

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasingly ordered
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy). For any
    factor rho = F F^dag they are the singular values of the symmetric
    matrix tau = F^T (sy x sy) F (Wootters, PRL 80, 2245 (1998)); F = evecs
    sqrt(evals) comes from the eigensolve that checks the state. A singular
    value carries an absolute error of about eps ||tau||, so a small l_i
    needs no cutoff. An eigenvalue of rho within the eigensolver's noise of
    zero (below 16 eps lam_max) is zero: near a rank-deficient state, C
    moves like the square root of a perturbation, so a kept 1e-16 would
    cost up to 1e-8.
    """
    rho = tensor.as_matrices(rho)
    lead = rho.shape[:-2]
    _, evals, evecs = _require_two_qubit_density(rho.reshape(-1, *rho.shape[-2:]))
    evals = np.where(evals > _EIG_NOISE * evals[:, -1:], evals, 0.0)
    f = evecs * np.sqrt(evals)[:, None, :]
    tau = f.swapaxes(-1, -2) @ (f[:, ::-1] * _FLIP_ROWS)
    lam = np.linalg.svd(tau, compute_uv=False).tolist()
    c = [_flush(min(max(l1 - l2 - l3 - l4, 0.0), 1.0)) for l1, l2, l3, l4 in lam]
    return tensor._number_or_stack(np.array(c).reshape(lead))


def _pure_cut_concurrence(red: np.ndarray, rdims, a_pos) -> list[float]:
    """Flushed min(sqrt(2 (1 - tr rho_A^2)), 1) of each matrix of a stack,
    or min(2 s_1 s_2, 1) of each row of Schmidt coefficients: the same
    value, without the cancellation in 1 - tr rho_A^2."""
    if red.ndim == 2:
        return [_flush(min(2.0 * s1 * s2, 1.0)) for s1, s2 in red.tolist()]
    purity = tensor.purity(tensor.partial_trace(red, rdims, a_pos)).tolist()
    return [_flush(min(math.sqrt(max(0.0, 2.0 * (1.0 - p))), 1.0)) for p in purity]


def _side_entropy(red: np.ndarray, rdims, a_pos) -> list[float]:
    """Flushed entropy of side A of each matrix of a stack, or of the
    squared Schmidt coefficients of each row."""
    if red.ndim == 2:
        lam = red * red
    else:  # a marginal of a checked state: exactly Hermitian, not checked again
        lam = np.linalg.eigvalsh(tensor.partial_trace(red, rdims, a_pos))
    return [_flush(e) for e in tensor._entropies(lam).tolist()]


def _is_pure(red: np.ndarray) -> list[bool]:
    """Whether each matrix of a stack is pure within 1e-9; Schmidt
    coefficients are those of a pure state."""
    if red.ndim == 2:
        return [True] * len(red)
    return [p >= 1.0 - PURITY_TOL for p in tensor.purity(red).tolist()]


def concurrence_pure_cut(state: MultipartiteState, cut: Cut) -> float:
    """Concurrence sqrt(2 (1 - tr rho_A^2)) across a pure cut.

    Requires the state restricted to the cut to be pure and side A to be a
    single qubit.
    """
    red, rdims, a_pos, *_ = _state_reduced(state, cut)
    red = _matrices(red)
    if not _is_pure(red)[0]:
        raise ValueError("state on the cut is not pure")
    if len(a_pos) != 1 or rdims[a_pos[0]] != 2:
        raise ValueError("side A of the cut must be a single qubit")
    return _pure_cut_concurrence(red, rdims, a_pos)[0]


def _require_rank2(third: np.ndarray) -> None:
    """Raise MeasureUndefinedError for the first row of a stack of mixed
    single-qubit cuts whose marginal has a third eigenvalue above RANK_TOL;
    ``third`` (m, 1) holds each row's third eigenvalue, or is (m, 0) when
    the marginals have none."""
    for t in third.ravel().tolist():
        if t > RANK_TOL:
            raise MeasureUndefinedError(
                f"concurrence undefined on a mixed cut of rank > 2 (third eigenvalue {t:.3e})"
            )


def tangle_rank2(rho, dims, a_index: int):
    """Convex-roof squared concurrence of a rank <= 2 state across qubit A : rest,
    or of each matrix of a stack (..., d, d).

    Every pure-state decomposition of a rank-2 state lives on the Bloch
    sphere of its two-dimensional support, where the squared concurrence
    tau(n) = 4 det rho_A(n) is a quadratic polynomial in the Bloch vector n.
    The convex roof of a quadratic over sphere points with fixed barycenter m
    is attained by a two-point decomposition along the eigendirection of the
    smallest eigenvalue of the quadratic's matrix M, giving the closed form

        tau(rho) = tau_affine(m) + lambda_min(M) (1 - |m|^2)

    (Osborne, PRA 72, 022309 (2005)). The input must be a density matrix
    (``tensor._density_eig``, one eigensolve for the whole stack), whose
    two leading eigenvectors span the support; raises MeasureUndefinedError
    for the first matrix whose numerical rank exceeds 2. ``_roof`` then
    takes the value from the support, as it does for the vector form.
    """
    rho = tensor.as_matrices(rho)
    lead, d = rho.shape[:-2], rho.shape[-1]
    dims = tensor.check_dims(d, dims)
    (a_index,) = tensor._indices((a_index,), len(dims))
    if dims[a_index] != 2:
        raise ValueError("side A must be a single qubit")
    _, evals, evecs = tensor._density_eig(rho.reshape(-1, d, d), vectors=True)
    _require_rank2(evals[:, -3:-2])  # the third eigenvalue, if d > 2
    # the support, columns dominant then subdominant, with qubit A's axis first
    support = evecs[..., -2:][..., ::-1].reshape(-1, *dims, 2)
    support = np.moveaxis(support, 1 + a_index, 1).reshape(-1, 2, d // 2, 2)
    tau = _roof(evals[:, -1] - np.maximum(evals[:, -2], 0.0), support)
    return tensor._number_or_stack(tau.reshape(lead))


def _roof(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """tangle_rank2 of each row of a stack from its support w (m, 2, r, 2),
    side A first, columns dominant then subdominant (orthonormal), and
    x = lam_0 - lam_1, the barycenter m = (0, 0, x) in the support's Bloch
    frame.

    Phi(X) = tr_B(W X W^dag) maps the support qubit to A, and c[mu, k] =
    tr(Phi(sigma_mu) sigma_k), its Pauli coefficients, take one einsum of
    the support, its conjugate and a constant table. Then
    det((c0 + c.sigma)/2) = (c0^2 - |c|^2)/4 polarizes to the quadratic's
    matrix q = C diag(1, -1, -1, -1) C^T / 4, and tau = Q(m) + lam_min(q
    without row and column 0) (1 - x^2), clamped at 0.
    """
    c = np.einsum("mabk,mcbl,akcluv->muv", w, w.conj(), _PHI_PAULI).real  # half of c[mu, k]
    q = (c * _MINKOWSKI) @ c.swapaxes(-1, -2)
    # Q(m) = q00 + 2 q0.m + m.q.m, with m's zero entries dropped
    q_m = q[:, 0, 0] + 2.0 * (q[:, 0, 3] * x) + (x * q[:, 3, 3]) * x
    lam_min = np.linalg.eigvalsh(q[:, 1:, 1:])[:, 0]
    return np.maximum(q_m + lam_min * (1.0 - x * x), 0.0)


def _qubit_cut_concurrence(red: np.ndarray, rdims, a_pos) -> list[float]:
    """Concurrence of each row of a reduced stack whose side A is one qubit
    and side B more: the pure-cut formula on the pure rows, the square root
    of the rank-2 roof on the others.

    Schmidt coefficients are pure. A matrix row is pure by its purity, and
    its roof is ``tangle_rank2``. A row F (2, db, k) of the vector form
    gives its marginal's spectrum and support from one svd of F as a
    (2 db, k) matrix: the eigenvalues are s^2, the purity sum s^4, and the
    two leading left singular vectors span the support, so a mixed row
    takes ``_roof`` without its marginal or an eigensolve; a third s^2
    above RANK_TOL raises ``tangle_rank2``'s error.
    """
    if red.ndim == 2:
        return _pure_cut_concurrence(red, rdims, a_pos)
    if red.ndim == 4:
        m, _, db, k = red.shape
        u, s, _ = np.linalg.svd(red.reshape(m, 2 * db, k), full_matrices=False)
        lam = s * s
        pure = [p >= 1.0 - PURITY_TOL for p in (lam * lam).sum(-1).tolist()]
    else:
        pure = _is_pure(red)
    rows = [i for i, p in enumerate(pure) if p]
    mixed = [i for i, p in enumerate(pure) if not p]
    val = {}
    if rows:
        val.update(zip(rows, _pure_cut_concurrence(_matrices(red[rows] if mixed else red), rdims, a_pos)))
    if mixed:
        if red.ndim == 3:
            taus = tangle_rank2(red[mixed], rdims, a_pos[0])
        else:
            _require_rank2(lam[mixed, 2:3])  # the third eigenvalue, if F has one
            taus = _roof(lam[mixed, 0] - lam[mixed, 1], u[mixed, :, :2].reshape(-1, 2, db, 2))
        val.update(zip(mixed, [_flush(math.sqrt(tau)) for tau in taus.tolist()]))
    return [val[i] for i in range(len(red))]


# ---------------------------------------------------------------------------
# negativity family
# ---------------------------------------------------------------------------

def _negativity(kind: MeasureKind, trace_norm: float) -> float:
    """The negativity-family value of ``kind`` from ||rho^T_A||_1, flushed:
    N = (||rho^T_A||_1 - 1)/2, 2N when normalized, or log2(2N + 1) for the
    log-negativity."""
    n = max(0.5 * (trace_norm - 1.0), 0.0)
    if kind.tag is Measure.LOG_NEGATIVITY:
        return _flush(math.log2(2.0 * n + 1.0))
    return _flush(2.0 * n if kind.normalized else n)


def negativity(state: MultipartiteState, cut: Cut, normalized: bool = False) -> float:
    """Negativity N = (||rho^T_A||_1 - 1)/2 across the cut.

    With ``normalized`` the value is doubled so a maximally entangled qubit
    pair scores 1.
    """
    return evaluate(MeasureKind(Measure.NEGATIVITY, normalized), state, cut)


def log_negativity(state: MultipartiteState, cut: Cut) -> float:
    """Logarithmic negativity log2(2N + 1) in ebits (N unnormalized)."""
    return evaluate(MeasureKind(Measure.LOG_NEGATIVITY), state, cut)


# ---------------------------------------------------------------------------
# entanglement of formation
# ---------------------------------------------------------------------------

def eof_from_concurrence(c: float) -> float:
    """E = h((1 + sqrt(1 - C^2))/2) with h the binary entropy, for a
    concurrence C in [0, 1]."""
    c = tensor._real(c, "concurrence", closed=True, hi=1.0)
    return tensor.binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def eof_two_qubit(rho):
    """Entanglement of formation of a two-qubit density matrix, or of each
    matrix of a stack (..., 4, 4), in ebits."""
    c = np.asarray(concurrence_two_qubit(rho))
    eof = [_flush(eof_from_concurrence(x)) for x in c.ravel().tolist()]
    return tensor._number_or_stack(np.array(eof).reshape(c.shape))


def eof_pure_cut(state: MultipartiteState, cut: Cut) -> float:
    """Entanglement entropy of side A for a pure cut, in ebits."""
    return _pure_cut_entropy(*_state_reduced(state, cut))[0]


def _pure_cut_entropy(red: np.ndarray, rdims, a_pos, *_) -> list[float]:
    """eof_pure_cut of each row of a reduced stack and its cut plan
    (``_reduced``); every row must be pure."""
    red = _matrices(red)
    if not all(_is_pure(red)):
        raise ValueError("state on the cut is not pure")
    return _side_entropy(red, rdims, a_pos)


# ---------------------------------------------------------------------------
# classical correlation and quantum discord (two-qubit, projective
# measurements along Bloch directions, in the Bloch (Fano) form of Luo,
# PRA 77, 042303 (2008))
# ---------------------------------------------------------------------------

def _bloch_form(rho: np.ndarray, measured: str):
    """(spectrum, a, b, T) of the checked two-qubit density matrix of a stack
    of one (1, 4, 4): rho = (I + a.s x I + I x b.s + sum_ij T_ij s_i x s_j)/4,
    oriented so that b is the measured qubit's Bloch vector, a the other
    qubit's, and T the correlation matrix with rows on the other qubit."""
    rho, evals, _ = _require_two_qubit_density(rho)
    side = str(measured).strip().lower()
    if side not in ("a", "b"):
        raise ValueError(f"measured side must be 'a' or 'b', got {measured!r}")
    r = np.real(np.einsum("abxy,mxa,nyb->mn", rho[0].reshape(2, 2, 2, 2), _PAULI, _PAULI))
    if side == "a":
        r = r.T
    return evals[0], r[1:, 0], r[0, 1:], r[1:, 1:]


def _conditional_entropy_grid(a, b, t, n) -> np.ndarray:
    """sum_k p_k S(other | outcome k) for each column of the (3, G) array n of
    unit measurement directions.

    Outcome +-1 along n has probability p = (1 +- b.n)/2 and leaves the other
    qubit with Bloch vector (a +- T n)/(2p), whose entropy is h((1 + |.|)/2);
    outcomes with p <= 1e-18 contribute 0.
    """
    bn, tn = b @ n, t @ n
    total = np.zeros(n.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            p = 0.5 * (1.0 + sign * bn)
            r = np.sqrt(((a[:, None] + sign * tn) ** 2).sum(axis=0))
            x = 0.5 * (1.0 + np.minimum(r / (2.0 * p), 1.0))
            y = 1.0 - x
            h = -x * np.log2(x) - np.where(y > 0.0, y * np.log2(y), 0.0)
            total += np.where(p > 1e-18, p * h, 0.0)
    return total


def _conditional_entropy(a, b, t, theta: float, phi: float) -> float:
    """_conditional_entropy_grid at the single direction (theta, phi), in
    plain float arithmetic on a, b and t given as (nested) lists: on one
    point this is several times cheaper than numpy."""
    s = math.sin(theta)
    n0, n1, n2 = s * math.cos(phi), s * math.sin(phi), math.cos(theta)
    (a0, a1, a2), (b0, b1, b2) = a, b
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t
    bn = b0 * n0 + b1 * n1 + b2 * n2
    tn0 = t00 * n0 + t01 * n1 + t02 * n2
    tn1 = t10 * n0 + t11 * n1 + t12 * n2
    tn2 = t20 * n0 + t21 * n1 + t22 * n2
    total = 0.0
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * bn)
        if p > 1e-18:
            r = math.sqrt((a0 + sign * tn0) ** 2 + (a1 + sign * tn1) ** 2 + (a2 + sign * tn2) ** 2)
            total += p * tensor.binary_entropy(0.5 * (1.0 + min(r / (2.0 * p), 1.0)))
    return total


def _golden_step(g, lo: float, hi: float):
    """One golden-section step for a minimum of g on [lo, hi]: the narrowed
    (lo, hi) and the kept probe x with g(x), the lower probe on a tie."""
    m1 = hi - _GOLDEN * (hi - lo)
    m2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = g(m1), g(m2)
    if f1 <= f2:
        return lo, m2, m1, f1
    return m1, hi, m2, f2


@functools.cache
def _direction_grid() -> tuple[list[float], list[float], np.ndarray]:
    """The optimizer's 64 x 64 (theta, phi) grid: theta over [0, pi] and phi
    over [0, 2 pi), as lists, and the unit vectors (3, 64 * 64) in
    row-major (theta, phi) order, read-only. Built once, on first use."""
    thetas = np.linspace(0.0, np.pi, _GRID_POINTS)
    phis = np.linspace(0.0, 2.0 * np.pi, _GRID_POINTS, endpoint=False)
    sin_t, cos_t = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
    n = np.stack(
        [sin_t * np.cos(phis), sin_t * np.sin(phis), np.broadcast_to(cos_t, (_GRID_POINTS,) * 2)]
    ).reshape(3, -1)
    n.flags.writeable = False
    return thetas.tolist(), phis.tolist(), n


def classical_correlation(rho, measured: str = "b") -> float:
    """Measurement-maximized classical correlation of a two-qubit state, in bits.

    max over projective measurements on the chosen side of
    S(other) - sum_k p_k S(other | outcome k). The state is taken to its
    Bloch form (a, b, T) once; measuring along the unit vector
    n = (sin theta cos phi, sin theta sin phi, cos theta) then gives outcome
    probabilities (1 +- b.n)/2 and conditional Bloch vectors
    (a +- T n)/(1 +- b.n), so each direction costs a few flops. The optimizer scans a 64 x 64 (theta, phi)
    grid over the whole sphere, then refines the best grid point by 30
    alternating golden-section steps in theta and phi.
    """
    _, a, b, t = _bloch_form(tensor.as_matrix(rho)[None], measured)
    s_other = tensor.binary_entropy(0.5 * (1.0 + math.sqrt(float(a @ a))))

    thetas, phis, n = _direction_grid()
    cond = _conditional_entropy_grid(a, b, t, n)  # row-major (theta, phi)
    k = int(np.argmin(cond))
    best = float(cond[k])
    th, ph = thetas[k // _GRID_POINTS], phis[k % _GRID_POINTS]
    f = functools.partial(_conditional_entropy, a.tolist(), b.tolist(), t.tolist())

    lo_t, hi_t = th - np.pi / (_GRID_POINTS - 1), th + np.pi / (_GRID_POINTS - 1)
    lo_p, hi_p = ph - np.pi / _GRID_POINTS, ph + np.pi / _GRID_POINTS
    for _ in range(_REFINE_ITERATIONS):
        lo_t, hi_t, th, f_t = _golden_step(lambda x: f(x, ph), lo_t, hi_t)
        lo_p, hi_p, ph, f_p = _golden_step(lambda x: f(th, x), lo_p, hi_p)
        best = min(best, f_t, f_p)
    return _flush(max(s_other - best, 0.0))


def discord(rho, measured: str = "b") -> float:
    """Quantum discord I(rho) - classical_correlation(rho), in bits.

    The mutual information S(rho_A) + S(rho_B) - S(rho) takes the marginal
    entropies from the Bloch vectors, S = h((1 + |a|)/2), and S(rho) from
    the spectrum of the eigensolve that checks the state. Values within -1e-6
    of zero (optimizer shortfall) are clamped to 0.
    """
    evals, a, b, _ = _bloch_form(tensor.as_matrix(rho)[None], measured)
    mutual = (
        tensor.binary_entropy(0.5 * (1.0 + math.sqrt(float(a @ a))))
        + tensor.binary_entropy(0.5 * (1.0 + math.sqrt(float(b @ b))))
        - tensor._spectral_entropy(evals)
    )
    d = mutual - classical_correlation(rho, measured)
    if -1e-6 <= d < 0.0:
        d = 0.0
    return _flush(d)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def as_kind(kind) -> MeasureKind:
    return kind if isinstance(kind, MeasureKind) else MeasureKind(kind)


def _normalized(kind) -> MeasureKind:
    """The normalized variant of a measure, scoring 1 on a maximally
    entangled qubit pair."""
    return MeasureKind(as_kind(kind).tag, normalized=True)


def evaluate(kind, state: MultipartiteState, cut: Cut) -> float:
    """Evaluate a measure on a cut; pure-state identities are used
    automatically when the state restricted to the cut is pure.

    Raises MeasureUndefinedError when the measure has no exact expression on
    the requested cut dimensions.
    """
    return _score_stack(as_kind(kind), *_state_reduced(state, cut))[0]


def _score_stack(kind: MeasureKind, red: np.ndarray, rdims, a_pos, b_pos, da, db) -> list[float]:
    """The measure on each row of a reduced stack in any of its forms, and
    its cut plan (``_reduced``), as a list of floats in stack order.

    Each row takes its own branch, and every branch returns flushed
    values. Raises MeasureUndefinedError if any row has no exact
    expression on the cut. Schmidt coefficients take the branch of the
    pure whole cut they come from: ||rho^T_A||_1 = (sum s)^2, 2 s_1 s_2
    and the entropy of the s^2. The vector form takes the branch of its
    marginal; for the negativity family one einsum builds the partial
    transpose straight away, and for concurrence on a single-qubit side A
    one svd of F gives the marginal's spectrum and support.
    """
    tag = kind.tag
    if tag is Measure.NEGATIVITY or tag is Measure.LOG_NEGATIVITY:
        if red.ndim == 2:
            norms = red.sum(-1) ** 2
        else:
            pt = tensor.partial_transpose(red, rdims, a_pos) if red.ndim == 3 else _marginal(red, True)
            norms = tensor._trace_norm(pt)
        return [_negativity(kind, t) for t in norms.tolist()]
    # the public kernels below check their input again: an exactly
    # Hermitian marginal passes, and their symmetrization changes no value
    if tag is Measure.CONCURRENCE:
        if da == 2 and db == 2:
            return concurrence_two_qubit(_matrices(red)).tolist()
        if da == 2:  # side A is a single qubit
            return _qubit_cut_concurrence(red, rdims, a_pos)
        raise MeasureUndefinedError(
            f"concurrence undefined on a {da}x{db} cut with a non-qubit A side"
        )
    red = _matrices(red)
    if tag is Measure.EOF:
        if da == 2 and db == 2:
            return eof_two_qubit(red).tolist()
        if all(_is_pure(red)):
            return _side_entropy(red, rdims, a_pos)
        raise MeasureUndefinedError(
            f"entanglement of formation undefined on a mixed {da}x{db} cut"
        )
    if not da == db == 2:
        raise MeasureUndefinedError(f"{tag.value} defined only on 2x2 cuts, requested {da}x{db}")
    measured = "a" if b_pos[0] == 0 else "b"  # measurement acts on side B
    fn = discord if tag is Measure.DISCORD else classical_correlation
    return [fn(m, measured) for m in red]
