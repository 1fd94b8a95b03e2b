"""Spans recorded from outside opmono, around the calls the harness makes.

A traced run wraps three kinds of boundary:

* every harness call into an opmono layer (``cert``, ``represent``,
  ``schur``, ``serialize``), through ``Tracer.call``;
* the ``evaluator`` and ``vgrad`` of each ``FreeFn`` the harness passes in,
  through ``Tracer.fn``, which rebuilds the function with
  ``dataclasses.replace`` so its name and declared flags are unchanged;
* the ``numpy.linalg`` kernels opmono looks up at call time, which
  ``Tracer.root`` patches on the module while an op or the set-up runs and
  restores afterwards.

Every wrapper returns the wrapped call's result untouched.  Spans stay in
memory as ``Span`` records and are reduced to per-layer metrics at the end
of the run.  ``NullTracer`` has the same interface and adds nothing, so the
untraced run executes exactly the calls the traced run executes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

KERNELS = ("eigh", "eigvalsh", "svd", "solve", "inv", "eig", "qr")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    size: int = 0  # rows for freefun.eval, matrices for a kernel, bytes for serialize
    n3: int = 0  # computed sum of n^3 over the matrices a kernel decomposed

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run: calls go straight through."""

    def call(self, name, f, *args, **kwargs):
        return f(*args, **kwargs)

    def fn(self, free_fn):
        return free_fn

    @contextlib.contextmanager
    def root(self, name):
        yield

    def note(self, size: int) -> None:
        pass


class Tracer:
    """Collects spans with parent links; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._wrapped: dict[int, object] = {}

    def _open(self, name: str, size: int = 0, n3: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent, size=size, n3=n3)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, f, *args, **kwargs):
        span = self._open(name)
        try:
            return f(*args, **kwargs)
        finally:
            self._close(span)

    @contextlib.contextmanager
    def root(self, name):
        """A span that groups one op (or the set-up) and everything under it.

        The kernels are patched only while a root is open, so the harness's
        own input generation and output checks between ops are not traced.
        """
        with self._kernels():
            span = self._open(name)
            try:
                yield
            finally:
                self._close(span)

    def note(self, size: int) -> None:
        """Add to the size of the innermost open span."""
        self.spans[self._stack[-1]].size += size

    def fn(self, free_fn):
        """The same FreeFn with spans around its evaluator and vgrad."""
        key = id(free_fn)
        if key not in self._wrapped:
            evaluator = free_fn.evaluator
            vgrad = free_fn.vgrad

            def traced_eval(xs):
                span = self._open("freefun.eval", size=_batch_rows(xs[0]) if xs else 0)
                try:
                    return evaluator(xs)
                finally:
                    self._close(span)

            def traced_vgrad(xs, seed):
                return self.call("freefun.vgrad", vgrad, xs, seed)

            self._wrapped[key] = (
                free_fn,  # keeps id() stable for the life of the tracer
                dataclasses.replace(
                    free_fn,
                    evaluator=traced_eval,
                    vgrad=None if vgrad is None else traced_vgrad,
                ),
            )
        return self._wrapped[key][1]

    @contextlib.contextmanager
    def _kernels(self):
        """Patch the numpy.linalg kernels, restoring them on exit."""
        originals = {name: getattr(np.linalg, name) for name in KERNELS}
        for name, kernel in originals.items():
            setattr(np.linalg, name, self._kernel(name, kernel))
        try:
            yield
        finally:
            for name, kernel in originals.items():
                setattr(np.linalg, name, kernel)

    def _kernel(self, name, kernel):
        label = f"linalg.{name}"

        def traced(a, *args, **kwargs):
            shape = np.shape(a)
            mats = _batch_rows(a)
            rows, cols = (shape[-2], shape[-1]) if len(shape) >= 2 else (1, 1)
            span = self._open(label, size=mats, n3=mats * rows * cols * min(rows, cols))
            try:
                return kernel(a, *args, **kwargs)
            finally:
                self._close(span)

        return traced


def _batch_rows(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1
