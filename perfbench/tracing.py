"""In-memory spans around the program's public functions (traced runs only).

A traced run wraps the public functions each layer exposes: class methods
are replaced on their class, module functions on the module that calls
them, and each wrapper records one :class:`Span`.  Nothing is installed
unless :func:`installed` is entered, so an untraced run executes the
program's own code objects.

Each span records its name, start and end, its parent span and the id of
the operation it belongs to.  Spans stay in a list until the run ends.
A span opened on a worker thread with nothing open on that thread takes
the innermost span open on the tracing thread as its parent, so the
per-shard requests a flush fans out to threads are children of the flush.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

AttrFn = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: Optional[int]
    op: object
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` names the operation new spans belong to."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op: object = None
        self._main = threading.get_ident()
        self._stacks: Dict[int, List[Span]] = {}
        self._ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Optional[AttrFn] = None) -> Callable:
        """``fn`` with one span recorded around every call."""
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and threading.get_ident() != self._main:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span = Span(name, next(self._ids), parent.span_id if parent else None,
                        self.op, self.clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


@dataclass(frozen=True)
class Patch:
    """Replace ``owner.attr`` (a class or module attribute) by a traced wrapper."""

    owner: object
    attr: str
    span: str
    attrs: Optional[AttrFn] = None


@contextlib.contextmanager
def installed(tracer: Tracer, patches: Iterable[Patch]) -> Iterator[None]:
    """Install every patch for the duration of the block, then restore."""
    undo: List[Tuple[object, str, bool, object]] = []
    try:
        for patch in patches:
            own = vars(patch.owner)
            undo.append((patch.owner, patch.attr, patch.attr in own, own.get(patch.attr)))
            setattr(patch.owner, patch.attr,
                    tracer.wrap(patch.span, getattr(patch.owner, patch.attr), patch.attrs))
        yield
    finally:
        for owner, attr, had_own, original in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# --------------------------------------------------------------------------- #
# reading spans back
# --------------------------------------------------------------------------- #
class SpanIndex:
    """Spans grouped by operation, name and parent, for per-layer numbers."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                self.children.setdefault(s.parent_id, []).append(s)

    def _nested_in_same_name(self, span: Span) -> bool:
        parent = self.by_id.get(span.parent_id) if span.parent_id is not None else None
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = self.by_id.get(parent.parent_id) if parent.parent_id is not None else None
        return False

    def outermost(self, names: Sequence[str], ops: Optional[Sequence[object]] = None) -> List[Span]:
        """Spans of ``names`` not nested inside a span of the same name."""
        wanted = set(names)
        keep = None if ops is None else set(ops)
        return [s for s in self.spans
                if s.name in wanted and (keep is None or s.op in keep)
                and not self._nested_in_same_name(s)]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in self.children.get(span.span_id, ()))
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.duration - covered

    def per_op(self, names: Sequence[str], ops: Sequence[object],
               value: Callable[[Span], float] = lambda s: s.duration) -> List[float]:
        """One total per operation of ``value`` over the outermost spans."""
        totals = {op: 0.0 for op in ops}
        for s in self.outermost(names, ops):
            totals[s.op] += value(s)
        return [totals[op] for op in ops]

    def median(self, names: Sequence[str], ops: Sequence[object],
               value: Callable[[Span], float] = lambda s: s.duration) -> float:
        """Median over operations of :meth:`per_op` (0 with no operations)."""
        totals = self.per_op(names, ops, value)
        return statistics.median(totals) if totals else 0.0
