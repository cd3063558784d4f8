"""Spans recorded from outside the program: wrap public calls, keep them in memory.

No file under ``src/`` knows it is being traced.  The benchmark either
calls a public function through :meth:`Tracer.call`, or temporarily
replaces a public function or method with a recording wrapper
(:class:`Patches`).  Targets are resolved *by name at run time*: a
target that no longer exists is reported ``absent`` and its metrics
read 0, so a later change that deletes a layer cannot break the
benchmark it may not edit.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, List, Optional, Tuple

class Tracer:
    """An in-memory span log with a parent stack and a current op id.

    The replays run one operation at a time on one thread (the routed
    replay awaits each lookup before starting the next), so a single
    stack gives every span its causal parent — including the server's
    handler running while the client's contact span is open.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent index or -1, op id, size or -1]``
        self.spans: List[List[Any]] = []
        self.op_id = -1
        self._stack: List[int] = []
        #: > 0 while inside a ``leaf`` span: nested calls go unrecorded.
        self._muted = 0

    # -- recording -----------------------------------------------------------

    def call(self, name: str, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``func(*args)`` inside a span called ``name``."""
        if not self.enabled:
            return func(*args, **kwargs)
        index = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(index)

    def leaf(self, name: str, func: Callable[[], Any]) -> Any:
        """Like :meth:`call`, but nothing beneath the span is recorded.

        For whole-constructor probes (a boot places tens of thousands
        of entries): the total is wanted, the children are not.
        """
        if not self.enabled:
            return func()
        index = self._open(name)
        self._muted += 1
        try:
            return func()
        finally:
            self._muted -= 1
            self._close(index)

    def _open(self, name: str) -> int:
        if self._muted:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int, name: Optional[str] = None, size: int = -1) -> None:
        if index < 0:
            return
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        if name is not None:
            span[0] = name
        span[5] = size
        self._stack.pop()

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        rename: Optional[Callable[[Any, tuple], str]] = None,
    ) -> Callable[..., Any]:
        """A drop-in for ``func`` that records one span per call.

        ``rename(result, args)`` may refine the span's name once the
        outcome is known (a cache probe becomes ``…_hit`` or ``…_miss``).
        ``bytes`` results also record their length.
        """
        tracer = self

        if asyncio.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                index = tracer._open(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(index)

            return traced_async

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            index = tracer._open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._close(
                    index,
                    rename(result, args) if rename is not None else None,
                    len(result) if type(result) is bytes else -1,
                )

        return traced

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def mean_us(self, name: str, per: float = 1.0) -> float:
        """Mean duration of the spans called ``name``, in µs, ÷ ``per``."""
        values = self.durations(name)
        return sum(values) / len(values) / per * 1e6 if values else 0.0

    def self_times(self) -> List[float]:
        """Each span's duration minus what its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def mean_self_us(self, name: str, per: float = 1.0) -> float:
        own = self.self_times()
        values = [own[i] for i, s in enumerate(self.spans) if s[0] == name]
        return sum(values) / len(values) / per * 1e6 if values else 0.0

    def sizes(self, name: str) -> List[int]:
        return [s[5] for s in self.spans if s[0] == name and s[5] >= 0]

    def write_jsonl(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id, size) in enumerate(self.spans):
                row = {
                    "span": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id, "self_us": own[index] * 1e6,
                }
                if size >= 0:
                    row["bytes"] = size
                handle.write(json.dumps(row) + "\n")


def resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``"pkg.mod:Class.attr"`` → ``(owner, attr, value)``, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def lookup(target: str) -> Any:
    """The object a target names, or None when it no longer exists."""
    found = resolve(target)
    return None if found is None else found[2]


class Patches:
    """Recording wrappers installed over public names, undone on exit.

    A module-level function may have been imported by name into other
    modules (``from .codec import decode_frame_body``); every loaded
    ``repro`` module holding the same object gets the wrapper, so the
    span is recorded whichever name the caller used.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(
        self,
        span_name: str,
        target: str,
        rename: Optional[Callable[[Any, tuple], str]] = None,
    ) -> None:
        found = resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, original = found
        wrapper = self.tracer.wrap(span_name, original, rename)
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__.get(attr, original)))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
