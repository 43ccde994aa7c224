"""Span tracer that wraps monolab's public functions from outside the library.

Every public function of ``tensor``, ``states``, ``measures``, ``monogamy``,
``verify`` and ``cli`` is replaced by a timing wrapper at every place it is
bound: the defining module, every monolab module that imported it with
``from ... import``, and the package namespace. ``numpy.linalg.eigh`` and
``eigvalsh`` are wrapped too, so eigensolves are counted by matrix size
wherever they are called. Nothing under ``src/`` is modified; ``uninstall``
puts every original object back.

Each thread keeps its own span stack, so spans run by ``cli``'s worker pool
are attributed to the worker that ran them. A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
from collections import Counter
from time import perf_counter

MODULES = ("tensor", "states", "measures", "monogamy", "verify", "cli")
EIG_SPAN = "tensor.eig"
CONSTRUCT_SPAN = "states.construct"
EVALUATE_SPAN = "measures.evaluate"


def eig_flop3(shape, is_complex: bool, vectors: bool) -> int:
    """Three times the computed (not measured) real-arithmetic operation
    count of a Hermitian eigensolve of order n: reduction to tridiagonal form
    costs 4/3 n^3 and the eigenvector back-transformation 2 n^3; a complex
    operation counts as 4 real ones, and the tridiagonal solve is not
    counted. An integer, so that sums over threads are exact in any order."""
    n = int(shape[-1])
    batch = math.prod(int(k) for k in shape[:-2])
    return batch * (4 + (6 if vectors else 0)) * n**3 * (4 if is_complex else 1)


class _Thread:
    """Span totals of one thread; only that thread writes to it."""

    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list[list] = []  # frames: [span name, child time]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``
    and read ``totals()``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- per-thread state ---------------------------------------------------

    def _thread(self) -> _Thread:
        t = getattr(self._local, "t", None)
        if t is None:
            t = _Thread(threading.get_ident() == self._main)
            self._local.t = t
            with self._lock:
                self._threads.append(t)
        return t

    def _wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper. ``before(thread, args, kwargs)`` and
        ``after(thread, args, kwargs, result_or_exception, ok)`` record extra
        counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tracer._thread()
            if before is not None:
                before(t, args, kwargs)
            frame = [name, 0.0]
            t.stack.append(frame)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                result = exc
                raise
            finally:
                dur = perf_counter() - start
                t.stack.pop()
                t.calls[name] += 1
                t.self_s[name] += dur - frame[1]
                t.total_s[name] += dur
                if t.stack:
                    t.stack[-1][1] += dur
                else:
                    t.root_s += dur
                if after is not None:
                    after(t, args, kwargs, result, ok)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _bind_everywhere(self, original, replacement) -> None:
        """Replace ``original`` at every module attribute bound to it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "monolab" or mod_name.startswith("monolab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy as np

        from monolab import measures, states

        as_kind = measures.as_kind  # the original: hooks must not open spans
        for short in MODULES:
            mod = sys.modules[f"monolab.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # bound here by import; wrapped via its home module
                before, after = self._hooks(short, attr, as_kind, measures.MeasureUndefinedError)
                wrapped = self._wrap(f"{short}.{attr}", fn, before, after)
                self._bind_everywhere(fn, wrapped)

        cls = states.MultipartiteState
        for attr in ("__post_init__", "marginal", "purity", "is_pure", "from_vector"):
            raw = cls.__dict__[attr]
            span = CONSTRUCT_SPAN if attr == "__post_init__" else f"states.MultipartiteState.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(span, raw.__func__))
            else:
                new = self._wrap(span, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

        for attr, vectors in (("eigh", True), ("eigvalsh", False)):
            raw = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, raw))
            setattr(np.linalg, attr, self._wrap(EIG_SPAN, raw, self._eig_hook(vectors)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-span extra counters ------------------------------------------

    @staticmethod
    def _eig_hook(vectors: bool):
        def before(t: _Thread, args, kwargs):
            a = args[0] if args else kwargs["a"]
            shape = getattr(a, "shape", None) or (len(a), len(a))
            t.counts[f"eig.d{shape[-1]}"] += 1
            is_complex = getattr(getattr(a, "dtype", None), "kind", "c") == "c"
            t.counts["eig.flop3"] += eig_flop3(shape, is_complex, vectors)

        return before

    @staticmethod
    def _hooks(module: str, attr: str, as_kind, undefined_error):
        if module == "measures" and attr == "evaluate":
            def tag(args, kwargs):
                return as_kind(args[0] if args else kwargs["kind"]).tag.value

            def before(t, args, kwargs):
                t.counts[f"evaluate.{tag(args, kwargs)}"] += 1

            def after(t, args, kwargs, result, ok):
                if not ok and isinstance(result, undefined_error):
                    t.counts[f"undefined.{tag(args, kwargs)}"] += 1

            return before, after
        branch = {"concurrence_two_qubit": "wootters", "tangle_rank2": "roof2"}.get(attr)
        if module == "measures" and branch:
            def after(t, args, kwargs, result, ok):
                if ok and t.inside(EVALUATE_SPAN):
                    t.counts[f"branch.{branch}"] += 1

            return None, after
        if module == "verify" and attr != "counterexample_search":
            def after(t, args, kwargs, result, ok):
                if ok:
                    t.counts["suite.count"] += result.count
                    t.counts["suite.skipped"] += result.skipped

            return None, after
        return None, None

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Span calls, self and inclusive time, extra counters and worker
        busy time, summed over threads."""
        calls, self_s, total_s, counts = Counter(), Counter(), Counter(), Counter()
        main_self, main_root, worker_busy = Counter(), 0.0, 0.0
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            calls.update(t.calls)
            self_s.update(t.self_s)
            total_s.update(t.total_s)
            counts.update(t.counts)
            if t.is_main:
                main_self.update(t.self_s)
                main_root += t.root_s
            else:
                worker_busy += t.root_s
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "counts": counts,
            "main_self_s": main_self,
            "main_root_s": main_root,
            "worker_busy_s": worker_busy,
        }
