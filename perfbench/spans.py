"""In-memory spans around calls into the program, recorded from outside it.

A `Probe` names one binding, such as ``crouzeix_lab.cli:certify`` or
``crouzeix_lab.ratio_search:EllipseBoundary.max_abs_poly``.  `Tracer.installed`
rebinds each probed name to a timing wrapper where the program's callers look
it up, and puts every original back when the block ends, also when it raises.
A probe whose module or attribute no longer exists is skipped, so its span
simply reports no calls.

Spans of one operation are kept as a list of [name, start, end, parent,
tag, work] records; `Tracer.end_op` folds them into per-name totals.  Self
time is a span's duration minus the durations of its direct children, which
never overlap because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

_perf = time.perf_counter

NAME, START, END, PARENT, TAG, WORK = range(6)


@dataclass(frozen=True)
class Probe:
    """One binding to time.

    target is "module:attr" or "module:Class.attr".  tag(args, result)
    returns a sub-name under which the call is also counted, or None;
    work(args, result) returns a count of work units done by the call.
    Both run only after a normal return, outside the timed interval.
    """

    target: str
    span: str
    tag: Optional[Callable] = None
    work: Optional[Callable] = None

    def resolve(self):
        """(owner, attribute name), or None when the binding is gone."""
        module_name, _, path = self.target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not callable(vars(owner).get(attr)):
            return None
        return owner, attr


class Stat:
    """Totals for one span name."""

    __slots__ = ("calls", "total", "self", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.work = 0


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its direct children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class Tracer:
    """Records spans for one operation at a time and keeps running totals."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.stats: dict = {}
        self.missing: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _perf(), 0.0, self.stack[-1] if self.stack else None, None, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = _perf()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself, such as one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def end_op(self) -> None:
        """Fold the spans recorded since the last call into the totals."""
        for s, own in zip(self.spans, self_times(self.spans)):
            names = (s[NAME],) if s[TAG] is None else (s[NAME], f"{s[NAME]}.{s[TAG]}")
            for name in names:
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.total += s[END] - s[START]
                st.self += own
                st.work += s[WORK]
        self.discard()

    def discard(self) -> None:
        """Drop spans recorded since the last fold, such as those of a check."""
        self.spans.clear()
        self.stack.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def wrap(self, fn, probe: Probe):
        open_, close = self._open, self._close
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if probe.tag is not None:
                spans[idx][TAG] = probe.tag(args, result)
            if probe.work is not None:
                spans[idx][WORK] = probe.work(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, probes):
        """Rebind every resolvable probe for the duration of the block."""
        saved = []
        try:
            for probe in probes:
                found = probe.resolve()
                if found is None:
                    self.missing.append(probe.target)
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(original, probe))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
