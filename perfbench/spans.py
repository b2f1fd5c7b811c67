"""In-memory span recorder wrapped around public functions of ``etensor``.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, ``op`` the id of the benchmark op that caused it.
Spans are kept in a list while the run lasts and written out once at the
end.  Wrapping replaces module attributes, so only calls that look the
name up on the patched module are seen; a module that imported the function
under its own name still calls the original, and that time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.op = -1
        self.patched: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = _clock()
            self.stack.pop()

    def wrap(self, name: str, fn: Callable, wrap_result: str | None = None,
             count: Callable[[tuple, dict], None] | None = None) -> Callable:
        """``fn`` with a span per call.

        ``wrap_result`` names the spans of the callable ``fn`` returns;
        ``count`` sees each call's arguments, outside the span.
        """
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                count(args, kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if wrap_result is not None:
                result = self.wrap(wrap_result, result)
            return result
        return traced

    def patch(self, module: Any, attr: str, name: str,
              wrap_result: str | None = None,
              count: Callable[[tuple, dict], None] | None = None) -> None:
        original = getattr(module, attr)
        self.patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, wrap_result, count))

    def unpatch(self) -> None:
        while self.patched:
            module, attr, original = self.patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def busy_and_self(spans: list[list[Any]]) -> tuple[dict[str, float],
                                                    dict[str, float],
                                                    dict[str, int]]:
    """Per span name: total duration, total self time, and call count.

    Self time is a span's duration minus that of its direct children; spans
    come from one thread, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _, _), children in zip(spans, child_time):
        busy[name] += end - start
        own[name] += end - start - children
        calls[name] += 1
    return busy, own, calls
