"""In-memory span recorder that wraps public devoc functions by module attribute.

Each span records its name, start, end, parent span, glyph id, phase and
repetition. Wrappers are installed with `Recorder.installed(...)` and removed
when the block exits, so untraced runs execute the library unchanged.

Nesting is strictly single-threaded, so a span's children never overlap and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    glyph: object
    phase: str
    rep: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped function: `module.attr`, reported as `name`.

    `glyph_of(args)` names a glyph when the span has none from its caller;
    `attrs_of(args, result)` extracts integer counts to keep with the span."""

    module: object
    attr: str
    name: str
    glyph_of: object = None
    attrs_of: object = None


class Recorder:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.rep = 0
        self.glyph = None  # set by the caller around one request
        self._stack = []

    def _wrap(self, target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            glyph = parent.glyph if parent is not None else self.glyph
            if glyph is None and target.glyph_of is not None:
                glyph = target.glyph_of(args)
            span = Span(
                len(self.spans),
                target.name,
                parent.id if parent is not None else None,
                glyph,
                self.phase,
                self.rep,
            )
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.attrs_of is not None:
                span.attrs = target.attrs_of(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        originals = [(t, getattr(t.module, t.attr)) for t in targets]
        try:
            for t, fn in originals:
                setattr(t.module, t.attr, self._wrap(t, fn))
            yield self
        finally:
            for t, fn in reversed(originals):
                setattr(t.module, t.attr, fn)

    def self_times(self):
        """Span id -> duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - child[s.id] for s in self.spans]

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "glyph": s.glyph,
                            "phase": s.phase,
                            "rep": s.rep,
                            "start": s.start,
                            "end": s.end,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )
