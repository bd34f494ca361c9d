"""Spans recorded from outside the library, around calls into its modules.

A ``Tracer`` replaces chosen module-level functions of ``decpotentials`` by
wrappers that record a span (name, start, end, parent, operation id) per
call; every module namespace that imported the same function object gets
the wrapper, so internal calls are traced too.  Spans stay in memory until
``write``.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name or None for a call count only)
TRACED_FUNCTIONS = (
    ("meshes", "generate_square_mesh", "meshes.generate"),
    ("meshes", "generate_ushape_mesh", "meshes.generate"),
    ("whitney", "de_rham", "whitney.de_rham"),
    ("homotopy", "find_collapse_sequence", "homotopy.find_collapse"),
    ("homotopy", "validate_collapse_sequence", "homotopy.validate_collapse"),
    ("homotopy", "find_strong_collapse_sequence", "homotopy.find_strong_collapse"),
    ("homotopy", "build_product_complex", "homotopy.product_complex"),
    ("homotopy", "contraction_from_strong_collapse", "homotopy.contraction_map"),
    ("cones", "collapse_cone", "cones.collapse_cone"),
    ("cones", "contraction_cone", "cones.contraction_cone"),
    ("cones", "star_cone", "cones.star_cone"),
    ("cones", "infinite_cone", "cones.infinite_cone"),
    ("cones", "lipschitz_cone", "cones.lipschitz_cone"),
    ("singular", "segment_functional", "singular.segment_rows"),
    ("singular", "triangle_functional", "singular.triangle_rows"),
    ("singular", "cone_functional", "singular.cone_rows"),
    ("singular", "chain_functional", None),
    ("singular", "cone_chain_functional", None),
    ("simplicial", "coboundary", "simplicial.coboundary"),
    ("potentials", "verify_homotopy", "potentials.verify"),
)


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    op = -1

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.calls: dict[tuple[str, int], int] = defaultdict(int)
        self.op = -1  # operation id stamped on new spans
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str | None, key: str, fn):
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[key, self.op] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key, self.op] += 1
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def install(self) -> None:
        """Wrap every function of TRACED_FUNCTIONS wherever it was imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "decpotentials" or n.startswith("decpotentials."))]
        for mod_name, attr, name in TRACED_FUNCTIONS:
            original = getattr(sys.modules["decpotentials." + mod_name], attr)
            wrapped = self._wrap(name, f"{mod_name}.{attr}", original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict[tuple[str, int], float]:
        """Self time per (span name, operation id) over spans first..last-1."""
        last = len(self.names) if last is None else last
        out: dict[tuple[str, int], float] = defaultdict(float)
        for i in range(first, last):
            d = self.ends[i] - self.starts[i]
            out[self.names[i], self.ops[i]] += d
            p = self.parents[i]
            if p >= first:
                out[self.names[p], self.ops[p]] -= d
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.ops)),
                       "calls": [[k, op, n] for (k, op), n in sorted(self.calls.items())]},
                      fh)
