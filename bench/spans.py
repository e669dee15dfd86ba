"""Spans around the public functions of ekrkit, recorded from outside the package.

`Tracer.install()` replaces every public (non-underscore) function bound as an
attribute of an ekrkit module, re-imports included, with a wrapper that
records one span per call: name, start, end, parent span and one integer of
payload (search nodes, rows, bytes).  A generator function gets one span per
resumption, so a lazily consumed enumeration is charged to whoever pulls the
next item.  `Graph.__init__` is wrapped too, so graph building shows as a
span.  The per-bit helpers `iter_bits`, `bit_list` and `mask_of` and the
binomial `binom` are left alone.  `uninstall()` puts every original back.

Spans are kept in flat arrays in memory and written out once, at the end of
the run (`write`).  Nothing under `src/` knows about any of this.
"""
from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time
import types

MODULES = ("graphs", "families", "verify", "treegen", "bounds", "cli")
# per-bit and per-term helpers, not layer boundaries: a span per bit or per
# binomial would dwarf the work traced, so their time stays with their caller
UNTRACED = {"iter_bits", "bit_list", "mask_of", "binom"}

# flags in the payload of a generator span
GEN_YIELDED = 1
GEN_FIRST = 2


def _payload(qualname: str):
    if qualname in ("is_r_ekr", "is_strictly_r_ekr", "max_nonstar_intersecting",
                    "max_intersecting_family", "nonuniform_ekr"):
        return lambda args, res: res.nodes_explored
    if qualname == "search_trees":
        return lambda args, res: res.unique_graphs
    if qualname == "all_independent_sets":
        return lambda args, res: len(res)
    if qualname == "grid_to_csv":
        return lambda args, res: len(args[0])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.aux = array.array("q")
        self.stack = [-1]
        self.generators: set[int] = set()  # name ids with one span per resumption
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans opened by the benchmark itself ---------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.aux.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        nid = self.name_id(name)
        payload = _payload(fn.__qualname__)
        names, parents, starts, ends, auxs, stack = (
            self.name, self.parent, self.start, self.end, self.aux, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            auxs.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if payload is not None:
                auxs[i] = payload(args, res)
            return res

        return traced

    def _wrap_generator(self, fn, name: str):
        nid = self.name_id(name)
        self.generators.add(nid)
        names, parents, starts, ends, auxs, stack = (
            self.name, self.parent, self.start, self.end, self.aux, self.stack)
        clock = time.perf_counter_ns

        class TracedGenerator:
            __slots__ = ("it", "flag")

            def __init__(self, it):
                self.it = it
                self.flag = GEN_FIRST

            def __iter__(self):
                return self

            def __next__(self):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                auxs.append(self.flag)
                self.flag = 0
                stack.append(i)
                starts.append(clock())
                try:
                    item = next(self.it)
                finally:
                    ends[i] = clock()
                    stack.pop()
                auxs[i] |= GEN_YIELDED
                return item

            def close(self):
                self.it.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedGenerator(fn(*args, **kwargs))

        return traced

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrapped:
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
            if inspect.isgeneratorfunction(fn):
                self._wrapped[key] = self._wrap_generator(fn, name)
            else:
                self._wrapped[key] = self._wrap_function(fn, name)
        return self._wrapped[key]

    def install(self):
        """Wrap every public ekrkit function at every module attribute binding it."""
        import ekrkit
        from ekrkit import graphs

        mods = [ekrkit] + [importlib.import_module("ekrkit." + m) for m in MODULES]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("ekrkit.")):
                    continue
                self._patches.append((mod, attr, value))
                setattr(mod, attr, self._wrapper_for(value))
        init = graphs.Graph.__init__
        self._patches.append((graphs.Graph, "__init__", init))
        graphs.Graph.__init__ = self._wrap_function(init, "graphs.Graph.__init__")

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def self_times(self) -> array.array:
        """Per-span self time in ns: duration minus the time of direct children."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        own = array.array("q", (end[i] - start[i] for i in range(n)))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def write(self, stem: str):
        """Write `<stem>.json` (names and layout) and `<stem>.bin` (the spans)."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end, self.aux):
                arr.tofile(fh)
        meta = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [["name", "i"], ["parent", "i"], ["start_ns", "q"],
                        ["end_ns", "q"], ["aux", "q"]],
            "layout": "column after column, native byte order, itemsize per typecode",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
