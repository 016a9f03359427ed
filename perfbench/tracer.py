"""Spans recorded around the public functions of pass_uav, from outside it.

`Tracer.wrap` makes a wrapper for one module attribute that records a span
(name, start, end, parent span, cycle id, note) in memory. `Tracer.root` puts
every wrapper in place for one request and restores the originals after it.
Calls made through the module attribute, including calls from inside the
library that look the name up as a module global, then pass through the
wrapper. A target that no
longer exists is listed in `missing`, and the metrics built on it are left
out instead of failing the run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, CYCLE, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cycle = -1
        self.missing: list[str] = []
        self._targets: list[tuple] = []

    def wrap(self, module, attr, before=None, after=None) -> None:
        """Record a span per call of ``module.attr`` made inside `root`.

        ``before(args, kwargs) -> (args, kwargs, note)`` may rewrite the call;
        ``after(note, args, kwargs, result) -> note`` stores what the metrics
        need from the result. The note is kept on the span.
        """
        target = getattr(module, attr, None)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if not callable(target):
            self.missing.append(name)
            return
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            note = None
            if before is not None:
                args, kwargs, note = before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cycle, note]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after is not None:
                span[NOTE] = after(note, args, kwargs, result)
            return result

        self._targets.append((module, attr, target, wrapper))

    @contextmanager
    def root(self, name: str, cycle: int):
        """The benchmark's own span around one request; its id is ``cycle``.
        The wrappers are in place only inside it."""
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        self.cycle = cycle
        span = [name, 0.0, 0.0, -1, cycle, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self.stack.pop()
            for module, attr, target, _ in reversed(self._targets):
                setattr(module, attr, target)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:NOTE]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
