"""Outside-in span recorder for the traced run.

``install`` replaces every entry point listed in ``perfbench.boundaries``
with a timing wrapper; the :class:`Tracer` keeps one stack of open *frames*
(the process is single-threaded) and attributes every frame's duration to
exactly one span name:

* self time of a frame = its duration minus the durations of the frames
  opened directly under it, so summing self times over all names gives back
  the traced wall time -- nothing is counted twice or lost;
* a ``generator`` boundary is timed *per resume*: each ``send``/``throw``/
  ``close`` the simulation kernel delivers is one frame, so simulated
  waiting between resumes never counts as host busy time;
* a cell is closed from the public ``progress`` callback
  (:meth:`Tracer.end_cell`): everything recorded since the previous call
  belongs to the cell whose key the callback hands over, and the cell's own
  self time (scenario glue, apps, mpi) is its wall time minus its top-level
  frames.

Phase-level spans (``keep=True`` rows) are kept individually with start,
end, parent span and cell key; per-chunk calls are folded into
per-(cell, span, parent) aggregates of calls / inclusive / self / bytes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from perfbench.boundaries import BOUNDARIES, CELL_SPAN, Boundary

#: what a broken ``nbytes``/``flag`` extractor can raise after a refactor
_EXTRACT_ERRORS = (AttributeError, IndexError, KeyError, TypeError)

# frame layout: [start, child_s, span name, kept-span record or None]
_START, _CHILD, _NAME, _SPAN = range(4)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class Tracer:
    """Frame stack + per-cell aggregates (see module docstring)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: List[list] = []
        self.cells: List[Dict[str, Any]] = []
        #: rows that did not resolve, or whose extractor broke mid-run
        self.unresolved: List[Dict[str, str]] = []
        self._layers: Dict[str, str] = {}
        self._aggregates: Dict[Tuple[str, str], list] = {}
        self._spans: List[Dict[str, Any]] = []
        self._top_level: List[Tuple[float, float]] = []
        self._broken: set = set()
        self._span_ids = 0

    # -- frames ------------------------------------------------------------------------

    def _enter(self, row: Boundary, span: Optional[Dict[str, Any]]) -> list:
        frame = [self.clock(), 0.0, row.span_name, span]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, calls: int = 1, nbytes: int = 0, flagged: int = 0) -> float:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[_START]
        if stack:
            parent = stack[-1]
            parent[_CHILD] += duration
            parent_name = parent[_NAME]
        else:
            self._top_level.append((frame[_START], duration))
            parent_name = CELL_SPAN
        key = (frame[_NAME], parent_name)
        entry = self._aggregates.get(key)
        if entry is None:
            entry = self._aggregates[key] = [0, 0.0, 0.0, 0, 0]
        entry[0] += calls
        entry[1] += duration
        entry[2] += duration - frame[_CHILD]
        entry[3] += nbytes
        entry[4] += flagged
        span = frame[_SPAN]
        if span is not None:
            span["end"] = end
            span["busy_s"] += duration
            span["resumes"] += 1
        return end

    def _new_span(self, row: Boundary) -> Dict[str, Any]:
        """A kept span, parented on the nearest kept span still open."""
        parent = None
        for frame in reversed(self.stack):
            if frame[_SPAN] is not None:
                parent = frame[_SPAN]["id"]
                break
        self._span_ids += 1
        span = {
            "id": self._span_ids,
            "name": row.span_name,
            "layer": row.layer,
            "parent": parent,
            "start": None,
            "end": None,
            "busy_s": 0.0,
            "resumes": 0,
        }
        self._spans.append(span)
        return span

    def _extract(self, row: Boundary, args: tuple, kwargs: dict, result: Any) -> Tuple[int, int]:
        """``(nbytes, flagged)`` of one finished call; a broken extractor is
        reported once and then skipped."""
        if row in self._broken:
            return 0, 0
        try:
            nbytes = row.nbytes(args, kwargs, result) if row.nbytes else 0
            flagged = 1 if row.flag and row.flag(args, kwargs, result) else 0
        except _EXTRACT_ERRORS as exc:
            self._broken.add(row)
            self.unresolved.append(
                {"target": row.target, "span": row.span_name, "reason": f"extractor: {exc!r}"}
            )
            return 0, 0
        return int(nbytes), flagged

    # -- wrappers ----------------------------------------------------------------------

    def wrap(self, row: Boundary, fn: Callable) -> Callable:
        self._layers[row.span_name] = row.layer
        wrapper = self._wrap_generator(row, fn) if row.kind == "generator" else self._wrap_sync(row, fn)
        wrapper.__name__ = getattr(fn, "__name__", row.attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", row.attr)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap_sync(self, row: Boundary, fn: Callable) -> Callable:
        enter, leave, extract = self._enter, self._leave, self._extract
        new_span = self._new_span if row.keep else None
        counted = row.nbytes is not None or row.flag is not None

        def sync_boundary(*args: Any, **kwargs: Any) -> Any:
            span = new_span(row) if new_span else None
            frame = enter(row, span)
            if span is not None:
                span["start"] = frame[_START]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame)
                raise
            if counted:
                nbytes, flagged = extract(row, args, kwargs, result)
                leave(frame, 1, nbytes, flagged)
            else:
                leave(frame)
            return result

        return sync_boundary

    def _wrap_generator(self, row: Boundary, fn: Callable) -> Callable:
        def generator_boundary(*args: Any, **kwargs: Any) -> Any:
            span = self._new_span(row) if row.keep else None
            inner = fn(*args, **kwargs)
            if not hasattr(inner, "send"):
                return inner
            outer = self._drive(row, inner, span, args, kwargs)
            outer.__name__ = getattr(inner, "__name__", outer.__name__)
            outer.__qualname__ = getattr(inner, "__qualname__", outer.__qualname__)
            return outer

        return generator_boundary

    def _drive(
        self, row: Boundary, inner: Any, span: Optional[Dict[str, Any]], args: tuple, kwargs: dict
    ) -> Iterator:
        """Proxy ``inner``, timing every resume as one frame of ``row``."""
        enter, leave = self._enter, self._leave
        value: Any = None
        thrown: Optional[BaseException] = None
        calls = 1  # the logical call is counted on its first resume only
        while True:
            frame = enter(row, span)
            if span is not None and span["start"] is None:
                span["start"] = frame[_START]
            try:
                if thrown is not None:
                    yielded = inner.throw(thrown)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                nbytes, flagged = self._extract(row, args, kwargs, stop.value)
                leave(frame, calls, nbytes, flagged)
                return stop.value
            except BaseException:
                leave(frame, calls)
                raise
            leave(frame, calls)
            calls = 0
            try:
                value = yield yielded
                thrown = None
            except GeneratorExit:
                frame = enter(row, span)
                try:
                    inner.close()
                finally:
                    leave(frame, 0)
                raise
            except BaseException as exc:
                value, thrown = None, exc

    # -- cells -------------------------------------------------------------------------

    def end_cell(self, key: str, wall_s: float) -> Dict[str, Any]:
        """Close the cell that just reported through the progress callback."""
        end = self.clock()
        start = end - wall_s
        inside = sum(d for s, d in self._top_level if s >= start)
        outside = sum(d for s, d in self._top_level if s < start)
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        for span in self._spans:
            span["cell"] = key
            if span["end"] is not None:
                intervals.setdefault(span["name"], []).append((span["start"], span["end"]))
        cell = {
            "key": key,
            "start": start,
            "end": end,
            "wall_s": wall_s,
            "self_s": wall_s - inside,
            #: boundary time recorded between the previous cell and this one
            "outside_s": outside,
            #: per kept span name, host time with at least one such span open
            #: (first resume -> last resume; overlapping tenants count once)
            "elapsed_s": {name: _union_length(spans) for name, spans in intervals.items()},
            "aggregates": [
                {
                    "span": name,
                    "layer": self._layers.get(name, ""),
                    "parent": parent,
                    "calls": entry[0],
                    "total_s": entry[1],
                    "self_s": entry[2],
                    "bytes": entry[3],
                    "flagged": entry[4],
                }
                for (name, parent), entry in self._aggregates.items()
            ],
            "spans": self._spans,
        }
        self.cells.append(cell)
        self._aggregates = {}
        self._spans = []
        self._top_level = []
        return cell


# -- installation ----------------------------------------------------------------------


def _concrete_subclasses(base: type) -> Iterator[type]:
    for sub in base.__subclasses__():
        yield sub
        yield from _concrete_subclasses(sub)


def _owners(row: Boundary) -> List[Any]:
    """The objects (classes or modules) whose ``row.attr`` is to be replaced."""
    module = importlib.import_module(row.module)
    if row.cls is None:
        original = getattr(module, row.attr)
        # ``from m import f`` copies the binding: rebind every repro module
        # that holds the very same function object.
        importers = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and mod is not module
            and name.startswith("repro.")
            and mod.__dict__.get(row.attr) is original
        ]
        return [module] + importers
    if row.cls.endswith("+"):
        base = getattr(module, row.cls[:-1])
        owners = [sub for sub in _concrete_subclasses(base) if row.attr in sub.__dict__]
        if not owners:
            raise AttributeError(f"no subclass of {row.cls[:-1]} defines {row.attr}")
        return owners
    return [getattr(module, row.cls)]


def _check(row: Boundary, fn: Any) -> None:
    if not inspect.isfunction(fn):
        raise TypeError(f"{row.target} is a {type(fn).__name__}, not a plain function")
    if row.kind == "sync" and inspect.isgeneratorfunction(fn):
        raise TypeError(f"{row.target} is a generator function but the row says sync")
    if row.kind not in ("sync", "generator"):
        raise TypeError(f"{row.target}: unknown kind {row.kind!r}")


class Installation:
    """The applied patches; :meth:`uninstall` restores every original."""

    def __init__(self) -> None:
        self._patched: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, rows: Iterable[Boundary] = BOUNDARIES) -> Installation:
    """Wrap every row that resolves; list the others in ``tracer.unresolved``."""
    installation = Installation()
    for row in rows:
        try:
            owners = _owners(row)
            if not owners:
                raise AttributeError(f"nothing binds {row.target}")
            for owner in owners:
                _check(row, owner.__dict__[row.attr])
        except (ImportError, AttributeError, KeyError, TypeError) as exc:
            tracer.unresolved.append(
                {"target": row.target, "span": row.span_name, "reason": repr(exc)}
            )
            continue
        for owner in owners:
            installation.patch(owner, row.attr, tracer.wrap(row, owner.__dict__[row.attr]))
    return installation
