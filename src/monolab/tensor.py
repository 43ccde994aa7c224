"""Dense linear algebra for small multipartite Hilbert spaces.

States and operators are plain ``numpy`` float64 or complex128 square
matrices; the subsystem structure travels separately as a tuple of
dimensions. Subsystem 0 is the leftmost tensor factor, i.e. the most
significant digit of the basis index (the standard Kronecker-product
convention).

The public kernels (partial trace and transpose, purity) also take a stack
of matrices of shape (..., d, d) and then return one result per matrix, and
so do the density check ``_density_eig`` and the private cores below.
A stack runs the same numpy operations in the same order as a loop over its
matrices, so every result is bit-identical to that matrix's own call, while
the Python and numpy call overhead is paid once for the whole stack. A
number-valued kernel gives a float for one matrix and an array for a stack;
the scoring code in ``measures`` passes stacks only, so it gets arrays.

A density matrix is Hermitian within 1e-10, has unit trace within 1e-9 and
has no eigenvalue below -1e-9 (``POSITIVITY_TOL``). ``_density_eig`` is the
one check of this rule, shared by the state constructor and every public
kernel of ``measures`` that takes a density matrix; the entropies
(``_entropies``) clamp eigenvalues in [-1e-9, 0) to 0. A matrix is checked
once, where it enters the library, and the check returns its symmetrization
(M + M^dag)/2, which is exactly Hermitian: entries (i, j) and (j, i) sum the
same two numbers, and the imaginary parts of the diagonal cancel to zero.
A state stores that matrix, and the partial traces and transposes of an
exactly Hermitian matrix are exactly Hermitian too, so the matrices
``measures`` derives from a checked state go to ``np.linalg.eigvalsh`` and
``_trace_norm`` unchecked and unsymmetrized.

Every public kernel coerces its input by one dtype rule (``_array``): a
real dtype (bool, integer, floating) becomes float64, any other
complex128, and a float64 or complex128 array passes as it is. A real
state is stored as float64 (see ``states.MultipartiteState``), so its
partial traces, partial transposes and purity stay float64 by numpy's own
dtype rules, and numpy's eigensolvers pick LAPACK's real routines for it,
a fraction of the complex solve's work. Nothing tests an imaginary part
at solve time. A partial trace sums and a partial transpose permutes, so
on a real matrix both equal the real part of the complex call bit for
bit; purity sums the squares of the entries' real and imaginary parts,
and a complex matrix interleaves its zero imaginary parts into that sum,
so the real and complex calls may differ within 2 eps.

Index plans are cached per shape: the dimension check, and the reshape and
axis bookkeeping of the partial trace and transpose, are worked out once per
shape, dimensions and subsystem set and reused, so repeated calls on one
shape do only the array work. The partial trace's plan is one ``np.einsum``
subscript string, keyed on the matrix dimension alone since ``...`` covers
any stack; the contraction sums each entry over the traced indices in
lexicographic order, and when nothing is traced it gives a view, which is
copied. A plan holds tuples of ints, never arrays, and
invalid input raises on every call, because a plan is cached only once it is
built. Two integer rules run on every call ahead of the caches, because a
cache key does not tell 2.0 from 2 or True from 1: the dims rule (``_dims``:
integers >= 2) and the index rule (``_indices``: integers in 0..n-1 for n
subsystems). Both apply ``_integer`` to each element; numpy integers pass,
and bools, floats and strings fail.

The other argument rules of the package live here too. The real rule
(``_real``) checks every exponent, tolerance, noise weight and concurrence
argument: a ``numbers.Real`` that is not a bool, finite and inside its
interval, returned as a float; numpy ints and floats pass, and bools,
strings, None and complex numbers fail. The list rule (``_list``) takes
anything ``tuple()`` accepts; ``_integers`` and ``_reals`` apply it before
checking each element, so a scalar where a list belongs fails too. Each
rule raises ValueError, never TypeError.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import string

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9


_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)


def _array(m) -> np.ndarray:
    """``m`` as an array: float64 if its dtype is real (bool, integer or
    floating), else complex128. A float64 or complex128 array passes as it is."""
    a = np.asarray(m)
    if a.dtype is _FLOAT or a.dtype is _COMPLEX:  # the fast path: a dtype identity test
        return a
    return a.astype(float if a.dtype.kind in "biuf" else complex)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square float64 or complex128 matrix (see ``_array``)."""
    a = _array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_matrices(m) -> np.ndarray:
    """Coerce input to float64 or complex128 square matrices (see
    ``_array``): one (d, d) matrix or a stack (..., d, d)."""
    a = _array(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _number_or_stack(x: np.ndarray):
    """A public kernel's result: a float for one matrix, else the array."""
    return float(x) if x.ndim == 0 else x


def _list(xs, what: str) -> tuple:
    """``tuple(xs)``, else ValueError: the one list rule, for a list of
    ``what`` values."""
    try:
        return tuple(xs)
    except TypeError:
        raise ValueError(f"{what} list must be iterable, got {xs!r}") from None


def _integer(x, what: str, lo: int, hi: float = math.inf) -> int:
    """``x`` as an int in lo..hi, else ValueError; bools and non-integers fail."""
    try:
        n = operator.index(x)
    except TypeError:
        n = None
    if n is None or isinstance(x, bool) or not lo <= n <= hi:
        raise ValueError(f"{what}, got {x!r}")
    return n


def _integers(xs, what: str, lo: int, hi: float = math.inf) -> tuple[int, ...]:
    """``xs`` as a tuple of ints in lo..hi, else ValueError: the list rule,
    then ``_integer`` on each element, the one element-wise integer rule of
    dims, indices and ranks. ``what`` names one element."""
    out = _list(xs, what)
    for x in out:  # the fast test; _integer converts, or names the culprit
        if type(x) is not int or not lo <= x <= hi:
            rule = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
            return tuple(_integer(x, f"{what} must be an integer {rule}", lo, hi) for x in out)
    return out


def _real(x, what: str, lo: float = 0.0, closed: bool = False, hi: float = math.inf) -> float:
    """``x`` as a float if it is a real number, not a bool, finite, above
    ``lo`` (or equal to it when ``closed``) and at most ``hi``, else
    ValueError: the one real rule of exponents, tolerances, noise weights,
    concurrences and the measure values a caller hands to the root finder."""
    v = x
    if type(x) is not float:  # the fast path: a Python float needs no conversion
        try:  # bools, strings, None and complex numbers fail, and so do ints beyond the float range
            v = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
        except OverflowError:
            v = math.nan
    if (lo <= v if closed else lo < v) and v <= hi and v < math.inf:  # NaN fails each test
        return v
    interval = f"{'[' if closed else '('}{lo!r}, {hi!r}{']' if hi < math.inf else ')'}"
    raise ValueError(f"{what} must lie in {interval}, got {x!r}")


def _reals(xs, what: str, lo: float = 0.0, closed: bool = False,
           hi: float = math.inf) -> tuple[float, ...]:
    """The list rule, then ``_real`` of each element, as a nonempty tuple,
    else ValueError: the one rule of every exponent list and noise grid.
    ``what`` names one element."""
    out = tuple(_real(x, what, lo, closed, hi) for x in _list(xs, what))
    if not out:
        raise ValueError(f"{what} list must be nonempty")
    return out


def _dims(dims) -> tuple[int, ...]:
    """``dims`` as a nonempty tuple of integers >= 2, else ValueError: the one
    dims rule of the package. It runs ahead of every cached plan."""
    out = _integers(dims, "subsystem dimension", 2)
    if not out:
        raise ValueError("dims must be nonempty")
    return out


def _indices(indices, n: int) -> tuple[int, ...]:
    """``indices`` as a tuple of subsystem indices of an n-party system, ints
    in 0..n-1, else ValueError: the one index rule of the package. It runs
    ahead of every cache keyed on indices."""
    return _integers(indices, "subsystem index", 0, n - 1)


@functools.lru_cache(maxsize=256)
def _checked_dims(dim: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Dims that passed ``_dims``, checked against the total dimension."""
    if math.prod(dims) != dim:
        raise ValueError(f"subsystem dimensions {dims} do not multiply to {dim}")
    return dims


def check_dims(dim: int, dims) -> tuple[int, ...]:
    """Validate subsystem dimensions against the total Hilbert-space dimension."""
    return _checked_dims(dim, _dims(dims))


@functools.lru_cache(maxsize=256)
def _trace_plan(dim: int, dims: tuple, keep: tuple):
    """(tensor shape, einsum subscripts, output dimension) of the partial
    trace of a (..., dim, dim) array, e.g. ``...abcdefgbcjef->...adgj``: a
    traced subsystem shares one letter between its row and column axes, a
    kept one has its own letter on each side, and ``...`` is any stack."""
    dims = _checked_dims(dim, dims)
    n, keep = len(dims), sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    rows = string.ascii_letters[:n]
    cols = "".join(string.ascii_letters[n + i] if i in keep else rows[i] for i in range(n))
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    return dims + dims, f"...{rows}{cols}->...{out}", math.prod(dims[i] for i in keep)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``, of one matrix or of
    each matrix of a stack.

    Kept subsystems stay in their original relative order, and the trace of
    the input is preserved. The result is a new array, also when ``keep``
    names every subsystem.

    One ``np.einsum`` (unoptimized, so with one fixed order) does the work,
    with subscripts cached per (dimension, dims, keep set): each output entry
    sums over the traced indices in lexicographic order, the order of a loop
    over them. When nothing is traced, einsum returns a view, which is copied.
    """
    rho, dims = as_matrices(rho), _dims(dims)
    shape, subscripts, d = _trace_plan(rho.shape[-1], dims, _indices(keep, len(dims)))
    lead = rho.shape[:-2]
    t = np.einsum(subscripts, rho.reshape(lead + shape)).reshape(lead + (d, d))
    return t if d < rho.shape[-1] else t.copy()


@functools.lru_cache(maxsize=256)
def _transpose_plan(shape: tuple, dims: tuple, transposed: tuple):
    """(tensor shape, axis permutation swapping row and column index of
    every transposed subsystem) for an array of ``shape`` (..., d, d)."""
    lead, dim = shape[:-2], shape[-1]
    dims = _checked_dims(dim, dims)
    n = len(dims)
    perm = list(range(2 * n))
    for i in transposed:  # a repeated index sets the same two entries again
        perm[i], perm[i + n] = i + n, i
    b = len(lead)
    return lead + dims + dims, tuple(range(b)) + tuple(b + p for p in perm)


def partial_transpose(rho, dims, transposed) -> np.ndarray:
    """Transpose the listed subsystems only, of one matrix or of each matrix
    of a stack. Applying it twice is the identity."""
    rho, dims = as_matrices(rho), _dims(dims)
    shape, perm = _transpose_plan(rho.shape, dims, _indices(transposed, len(dims)))
    return np.ascontiguousarray(rho.reshape(shape).transpose(perm).reshape(rho.shape))


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 of a matrix or stack, unchecked: the symmetrization of
    _density_eig, for matrices built without the check. Its output is
    exactly Hermitian, and applied to it again returns the same values."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _trace_norm(m: np.ndarray) -> np.ndarray:
    """Trace norms of the exactly Hermitian matrices of a stack, unchecked."""
    return np.abs(np.linalg.eigvalsh(m)).sum(-1)


def purity(rho):
    """tr(rho^2) of a Hermitian matrix, or of each matrix of a stack: the
    sum of the squares of the real and imaginary parts of its entries,
    which takes d^2 products where rho @ rho takes d^3."""
    rho = as_matrices(rho)
    x = np.ascontiguousarray(rho).reshape(*rho.shape[:-2], -1)
    if x.dtype is _COMPLEX:
        x = x.view(float)  # (re, im) pairs
    return _number_or_stack((x * x).sum(-1))


def _density_eig(m, vectors: bool = False):
    """(h, evals, evecs or None) of a density matrix or a stack of them, else
    ValueError: the one check of the density rule. It tests Hermiticity
    within 1e-10, then unit trace within 1e-9, then positivity: no
    eigenvalue below -1e-9. A NaN or infinite entry fails the Hermiticity
    test, and so does an entry so large that the test overflows, without a
    floating-point warning; a stack fails on its largest defect. It returns
    the symmetrized matrix (M + M^dag)/2, its ascending eigenvalues and,
    with ``vectors``, its eigenvectors."""
    m = as_matrices(m)
    m_dag = m.conj().swapaxes(-1, -2)
    try:  # the errstate costs less than an isfinite test of every entry
        with np.errstate(over="raise", invalid="raise"):
            defect = float(np.abs(m - m_dag).max())
            h = 0.5 * (m + m_dag)
    except FloatingPointError:  # inf - inf, inf * 0, or a sum beyond the float range
        defect = math.nan
    if not defect <= HERMITICITY_TOL:  # true for NaN
        if not np.isfinite(m).all():
            raise ValueError("density matrix is not Hermitian: it has a non-finite entry")
        if defect > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian: max|M - M^dag| = {defect:.3e}")
        raise ValueError("density matrix has an entry too large to check: its arithmetic overflows")
    # Python sums: a trace beyond the float range is inf, not a numpy warning
    for tr in map(sum, h.diagonal(0, -2, -1).real.reshape(-1, h.shape[-1]).tolist()):
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
    # numpy.linalg is read at call time, so a rebinding of eigh is seen
    evals, evecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    lam_min = min(evals[..., 0].ravel().tolist(), default=0.0)
    if lam_min < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has eigenvalue {lam_min:.3e} < -1e-9")
    return h, evals, evecs


def _entropies(lam: np.ndarray) -> np.ndarray:
    """_spectral_entropy of each spectrum of a stack (..., d). The spectra
    are summed one by one: the kept eigenvalues differ in number, and
    numpy's summation order depends on it."""
    s = [_spectral_entropy(row) for row in lam.reshape(-1, lam.shape[-1])]
    return np.array(s).reshape(lam.shape[:-1])


def _spectral_entropy(lam: np.ndarray) -> float:
    """-sum(lam log2 lam) of a checked spectrum, negative eigenvalues clamped to 0."""
    lam = lam[lam > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log2(lam)).sum())


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit, h(x) = -x log2 x - (1-x) log2(1-x)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))
