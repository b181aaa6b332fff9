"""Span recording from outside the program: wrappers around public calls.

:class:`Tracer` replaces a class attribute or module global with a
wrapper that records one span ``(id, parent, layer, name, start, end,
thread, meta)`` per call.  Parents come from a per-thread stack, so
nesting is the call nesting.  Spans stay in memory until
:meth:`Tracer.chrome_trace` turns them into Chrome trace events.
Nothing in the program's source changes; :meth:`Tracer.restore` puts
every original back.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Indices into a span record.
ID, PARENT, LAYER, NAME, START, END, THREAD, META = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}
        self._patches: List[tuple] = []
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        index = self._threads.get(ident)
        if index is None:
            index = self._threads.setdefault(ident, len(self._threads))
        return index

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        meta: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``owner`` is a class (the attribute must be defined on it, not
        inherited) or a module (the global as the callers see it).
        ``meta(args, kwargs, result)`` may attach a value to the span.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} does not define {attr}")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            record = [
                next(tracer._ids), stack[-1] if stack else -1, layer, name,
                0.0, 0.0, tracer._thread_index(), None,
            ]
            stack.append(record[ID])
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                record[START] = start
                stack.pop()
                tracer.spans.append(record)
            if meta is not None:
                record[META] = meta(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[NAME] == name]

    def in_layer(self, layer: str) -> List[list]:
        return [span for span in self.spans if span[LAYER] == layer]

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """Chrome trace-event object: one complete (``"X"``) event per
        span, microseconds from the tracer's creation, one lane per
        thread, ordered by start time within each lane (parents before
        the children they contain)."""
        ordered = sorted(
            self.spans, key=lambda s: (s[THREAD], s[START], -s[END], s[ID])
        )
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "e2ebench traced job"}},
        ]
        for span in ordered:
            events.append({
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "pid": 1,
                "tid": span[THREAD],
                "ts": (span[START] - self.origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"id": span[ID], "parent": span[PARENT]},
            })
        return {"traceEvents": events, "otherData": metadata}
