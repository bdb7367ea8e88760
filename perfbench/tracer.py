"""Per-layer timing from outside the program.

``Tracer.install`` replaces each public function of the package's layer
modules with a wrapper, in every module namespace that binds it (``cli``,
``kcalc``, ``weights`` and ``rearrange`` import grid functions by name, so
patching the defining module alone would miss their calls), and wraps the
``WeightGrid`` methods on the class.  ``uninstall`` restores the originals.

A timed wrapper records a span: its total time (outermost call only, so
recursion is not counted twice) and its self time, the span minus the spans
of wrapped functions it called.  The per-cube functions are count-only, to
keep the wrapper cost off the millions-of-calls paths.

Spans nest on one stack, so the traced program must run its work on one
thread; the benchmark leaves ``RHLAB_THREADS`` unset, which keeps ``verify``
serial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

import numpy as np

LAYERS = ("grid", "rearrange", "kcalc", "indices", "weights", "cli")
GRID_METHODS = ("zrange", "cube_cells", "float_level_sums", "sorted_level", "_exact_tree")
COUNT_ONLY = frozenset({"grid.zrange", "grid.cube_cells", "grid.morton_index", "rearrange.double_star"})


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra", "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = 0
        self.active = 0


class Tracer:
    """Wraps the layers of the ``rhlab`` package and accumulates ``Stat``s
    keyed ``<module>.<function>``."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"rhlab.{name}") for name in LAYERS}
        self.stats: dict[str, Stat] = {key: Stat() for key in self.targets()}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_levels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # computed counts: key -> (metric suffix, count(args, result))
        self.extras = {
            "grid.sorted_level": ("bytes", self._sorted_level_bytes),
            "kcalc.power_piece_integral": ("pieces", self._piece_count),
        }

    def _sorted_level_bytes(self, args, result) -> int:
        grid, level = args[0], args[1]
        seen = self._seen_levels.setdefault(grid, set())
        if level in seen:
            return 0
        seen.add(level)
        return sum(a.nbytes for a in result)

    @staticmethod
    def _piece_count(args, result) -> int:
        return np.broadcast(*(np.asarray(a) for a in args[:4])).size

    def targets(self) -> dict[str, object]:
        """Every callable to wrap, keyed ``<module>.<name>`` (call only while
        not installed)."""
        out = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    out[f"{layer}.{name}"] = obj
        weight_grid = self.modules["grid"].WeightGrid
        for name in GRID_METHODS:
            out[f"grid.{name}"] = vars(weight_grid)[name]
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in targets.items()}
        namespaces = [importlib.import_module("rhlab"), *self.modules.values()]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, wrappers[id(val)])
        weight_grid = self.modules["grid"].WeightGrid
        for name in GRID_METHODS:
            fn = vars(weight_grid)[name]
            self._patches.append((weight_grid, name, fn))
            setattr(weight_grid, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._patches):
            setattr(ns, attr, val)
        self._patches = []

    def _wrap(self, key: str, fn):
        st = self.stats[key]
        if key in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        extra = self.extras.get(key, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                st.active -= 1
                st.calls += 1
                st.self_s += elapsed - child
                if st.active == 0:
                    st.total_s += elapsed
            if extra is not None:
                st.extra += extra(args, result)
            return result

        return timed
