"""In-memory span tracer that wraps spadrate's public functions from outside.

Each function listed in a module's ``__all__`` is replaced, on the module
object, by a wrapper.  Because spadrate's modules call each other through
module attributes (``er.er_pdf``, ``nhpp.mean_on_time``) or through their
own module globals, replacing the attribute reaches those internal calls
too, so no change to the library is needed.

Most functions get a span: (name, start, end, parent, attrs).  Scalar
callees that quadrature evaluates once per point get a count-only wrapper
instead, which adds one to the innermost open span's counter; this keeps
the tracing overhead bounded on the inversion and paralyzing paths.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

# Evaluated once per quadrature node: counted, never spanned.
COUNT_ONLY = frozenset({
    "er.er_efficiency",
    "er.er_pdf",
    "er.er_cumulative_hazard",
    "er.er_ccdf",
    "er.er_cdf",
    "nhpp.nhpp_ccdf",
    "nhpp.nhpp_pdf",
})


class NullTracer:
    """Tracing off: benchmark-side spans cost one no-op context manager."""

    def span(self, name):
        return contextlib.nullcontext()


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}


class Tracer:
    """Records spans of one pass at a time; the caller keeps finished passes."""

    def __init__(self, modules, observers=None):
        self._modules = modules
        self._observers = observers or {}
        self._saved = []
        self.begin_pass()

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._current = span.attrs
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._current = self.spans[self._stack[-1]].attrs if self._stack else self._root_attrs

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def begin_pass(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._root_attrs: dict = {}  # counts made outside any span
        self._current = self._root_attrs

    # -- patching --------------------------------------------------------
    def _spanned(self, fn, name):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.attrs.update(observe(args, kwargs, out))
            return out

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = self._current
            current[name] = current.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for module in self._modules:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{prefix}.{attr}"
                wrap = self._counted if name in COUNT_ONLY else self._spanned
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrap(fn, name))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class PassTrace:
    """Queries over the spans of one finished pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        n = len(spans)
        self.duration = [s.end - s.start for s in spans]
        child_time = [0.0] * n
        # inclusive[i]: counts and attrs of span i and all its descendants,
        # plus one per descendant span name.
        self.inclusive = [dict(s.attrs) for s in spans]
        for i in range(n - 1, -1, -1):  # children always follow their parent
            p = spans[i].parent
            if p < 0:
                continue
            child_time[p] += self.duration[i]
            into = self.inclusive[p]
            into[spans[i].name] = into.get(spans[i].name, 0) + 1
            for key, val in self.inclusive[i].items():
                into[key] = into.get(key, 0) + val
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def select(self, name=None, prefix=None):
        return [i for i, s in enumerate(self.spans)
                if (name is None or s.name == name)
                and (prefix is None or s.name.startswith(prefix))]

    def calls(self, name):
        return len(self.select(name))

    def total(self, name):
        return sum(self.duration[i] for i in self.select(name))

    def self_total(self, name=None, prefix=None):
        return sum(self.self_time[i] for i in self.select(name, prefix))

    def inside(self, name, key):
        """Sum of ``key`` (a callee count or attr) within spans called ``name``."""
        return sum(self.inclusive[i].get(key, 0) for i in self.select(name))

    def dump(self, path):
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": rows}, fh)
