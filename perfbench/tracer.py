"""In-memory spans recorded around calls into the solver's layers.

Spans come from this benchmark's own wrappers: for the duration of a traced
run, the module globals through which the solver calls its layers are
replaced by wrappers that time the call and pass everything else through
unchanged, so the numerics are those of the untraced code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from parabgk import kinetic, parareal, runner


def _lift_name(kwargs) -> str:
    return "lifting.lift_norm" if kwargs.get("normalize_mass") else "lifting.lift"


# (module, global name, span name): every call site of a layer on the paths
# that run_mode and the traced parareal pass take.
TARGETS = [
    (runner, "prepare", "setup"),
    (runner, "initial_distribution", "cases.initial"),
    (runner, "propagate_kinetic", "kinetic.window"),
    (runner, "project", "moments.project"),
    (runner, "write_snapshots", "io.snapshots"),
    (parareal, "lift", _lift_name),
    (parareal, "propagate_kinetic", "kinetic.window"),
    (parareal, "project", "moments.project"),
    (parareal, "propagate_fluid", "fluid.window"),
    (kinetic, "transport_update", "kinetic.transport"),
    (kinetic, "bgk_relax", "kinetic.relax"),
    (kinetic, "project", "moments.project"),
    (kinetic, "lift", _lift_name),
]


class Tracer:
    """Spans as [name, start, end, parent index], kept until the run ends.

    `active` is read by the wrappers; a process forked while it is False
    (the pool workers) records nothing.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name(kwargs) if callable(name) else name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Install the layer wrappers; restore the originals on exit."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def descendants(self, root: int) -> list[int]:
        """Indices of the spans below root (children are recorded after parents)."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in inside:
                inside.add(index)
        inside.discard(root)
        return sorted(inside)

    def by_name(self, indices, use_self: bool = False) -> dict[str, list[float]]:
        times = self.self_times() if use_self else None
        out = defaultdict(list)
        for index in indices:
            out[self.spans[index][0]].append(
                times[index] if use_self else self.duration(index))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
