"""In-memory span tracer that wraps public functions of the program's modules.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the tracer is installed and written out once, when the run ends. Wrapping
is done from outside the program: every module in the package namespace
that binds a traced function (by ``import module`` attribute access or by
``from module import name``) gets the wrapper, and ``uninstall`` puts the
original objects back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

_NO_PARENT = -1


class Tracer:
    """Records nested spans around the functions named in ``targets``.

    ``targets`` maps a module name (``"riskgate.world"``) to the function
    names to wrap in it. ``observers`` maps a span name to a callable that
    receives each return value, for counts that only the result shows.
    """

    def __init__(self, targets: dict, observers: dict | None = None):
        self.targets = targets
        self.observers = dict(observers or {})
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._patched: list = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """Return a wrapper that records one span per call of fn."""
        nid = self._intern(name)
        observe = self.observers.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else _NO_PARENT)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return functools.wraps(fn)(traced)

    def _namespaces(self):
        prefixes = {m.split(".")[0] for m in self.targets}
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] in prefixes]

    def install(self) -> None:
        """Wrap every binding of every target function in the namespace.

        A target that its module no longer defines is skipped, so its span
        name reports 0 calls instead of failing the run.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for mod_name, fn_names in self.targets.items():
            home = sys.modules[mod_name]
            short = mod_name.rsplit(".", 1)[-1]
            for fn_name in fn_names:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    continue
                wrapper = self.wrap(orig, f"{short}.{fn_name}")
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def self_times(self) -> list:
        """Per-span duration minus the time covered by its direct children."""
        out = [self.end[i] - self.start[i] for i in range(len(self))]
        for i in range(len(self)):
            p = self.parent[i]
            if p != _NO_PARENT:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over every traced name.

        A recursive call inside a span of the same name adds to calls and
        self_s but not again to total_s, so total_s is wall time covered.
        """
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        selfs = self.self_times()
        for i in range(len(self)):
            nid = self.name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if not self._has_ancestor(i, nid):
                row["total_s"] += self.end[i] - self.start[i]
        return out

    def _has_ancestor(self, idx: int, nid: int) -> bool:
        p = self.parent[idx]
        while p != _NO_PARENT:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        pid, cid = self._name_ids.get(parent_name), self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for i in range(len(self))
                   if self.name_id[i] == cid and self.parent[i] != _NO_PARENT
                   and self.name_id[self.parent[i]] == pid)

    def count_within(self, ancestor_name: str, name: str) -> int:
        """Spans named name that have some ancestor named ancestor_name."""
        aid, nid = self._name_ids.get(ancestor_name), self._name_ids.get(name)
        if aid is None or nid is None:
            return 0
        return sum(1 for i in range(len(self))
                   if self.name_id[i] == nid and self._has_ancestor(i, aid))

    def write(self, path) -> None:
        """One JSON array per line: [name, start, end, parent index]."""
        with open(path, "w") as f:
            for i in range(len(self)):
                f.write(json.dumps([self.name_of(i), self.start[i], self.end[i],
                                    self.parent[i]]) + "\n")
