"""In-memory span tracer that observes a program from outside.

``Tracer.install`` replaces every binding of a traced function (each
module attribute that refers to it, or the class attribute for a method)
with a wrapper that records one span per call; ``Tracer.uninstall``
restores the originals.  Spans live in flat arrays until ``write`` saves
them once, at the end of a run.  Nothing here changes arguments or
results, so a traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable


class Tracer:
    """Records spans (name, start, end, parent span, item id) and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.items = array("i")
        self.counters: dict[str, float] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def wrap(self, name: str, fn: Callable, before: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``before(args)`` runs ahead of the clock, for counters that look
        at the arguments; its cost lands in the caller's span.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(self.starts)
            self.name_of.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.items.append(self.item)
            self.ends.append(0.0)
            stack.append(index)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(
        self,
        name: str,
        owner: object,
        attr: str,
        modules: Iterable[object],
        before: Callable | None = None,
    ) -> None:
        """Trace ``owner.attr`` under ``name``.

        For a class, the class attribute is replaced.  For a module, every
        attribute of every module in ``modules`` that is bound to the same
        function is replaced, so aliases such as ``from .m import f`` are
        traced too.
        """
        original = getattr(owner, attr)
        traced = self.wrap(name, original, before)
        if isinstance(owner, type):
            self.patch(owner, attr, traced)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, own in zip(self.name_of, self.self_times()):
            calls[name_id] += 1
            self_s[name_id] += own
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Save every span as ``[name, start, end, parent, item]`` rows."""
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "item"],
            "spans": [
                list(row)
                for row in zip(self.name_of, self.starts, self.ends, self.parents, self.items)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
