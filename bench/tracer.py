"""Span tracer that wraps module-level functions from outside the package.

Every wrapped function is one of two kinds:

* a **span** function records one span per call, ``(op, key, parent, t0,
  t1, hot_ns)``, in memory; ``parent`` is the index of the enclosing span
  (-1 for a root) and ``hot_ns`` the time its hot children covered;
* a **hot** function is counted and timed in aggregate only.  A hot
  function may call only hot functions or untraced code, so its own
  children are accounted for by the frame stack alone.

Self time (duration minus the time covered by traced children) is derived
afterwards by :func:`self_times`, so the recording path stays small.
"""

from __future__ import annotations

import inspect
import time
from types import ModuleType


def self_times(spans) -> list[int]:
    """Self time of each span: duration minus hot time minus child span durations."""
    own = [t1 - t0 - hot for (_, _, _, t0, t1, hot) in spans]
    for (_, _, parent, t0, t1, _) in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


class FuncStats:
    __slots__ = ("calls", "self_ns", "total_ns", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.errors = 0


class Tracer:
    """Wraps functions in place and keeps their spans and counts in memory."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list = []
        self.hot: dict[str, FuncStats] = {}
        self.span_errors: dict[str, int] = {}
        self.op = -1
        self._open: list[int] = []  # indices of open spans
        self._acc: list[int] = []  # hot time covered, one slot per open frame
        self._patched: list[tuple[ModuleType, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap_span(self, fn, key: str, pre=None, post=None):
        spans, open_, acc, clock, errors = (
            self.spans, self._open, self._acc, self.clock, self.span_errors
        )
        errors.setdefault(key, 0)
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            acc.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                t1 = clock()
                open_.pop()
                spans[idx] = (tracer.op, key, parent, t0, t1, acc.pop())
            if post is not None:
                post(result)
            return result

        return traced

    def wrap_hot(self, fn, key: str, pre=None):
        st = self.hot.setdefault(key, FuncStats())
        acc, clock = self._acc, self.clock
        push, pop = acc.append, acc.pop

        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            push(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                d = clock() - t0
                st.calls += 1
                st.total_ns += d
                st.self_ns += d - pop()
                if acc:
                    acc[-1] += d

        return traced

    def install(self, modules: dict[str, ModuleType], select, probes: dict) -> list[str]:
        """Wrap the functions ``select(short, name)`` picks in each module.

        A function imported into other modules with ``from ... import`` is
        replaced there too, by the same wrapper.  ``select`` returns
        ``"span"``, ``"hot"`` or ``None``; ``probes`` maps a key to
        ``(pre, post)`` callables.  Returns the wrapped keys.
        """
        wrappers, keys = {}, []
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                kind = select(short, name)
                if kind is None:
                    continue
                key = f"{short}.{name}"
                keys.append(key)
                pre, post = probes.get(key, (None, None))
                if kind == "hot":
                    wrappers[id(obj)] = (obj, self.wrap_hot(obj, key, pre))
                else:
                    wrappers[id(obj)] = (obj, self.wrap_span(obj, key, pre, post))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return sorted(keys)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- summaries --------------------------------------------------------

    def mark(self):
        """A point to summarise from: the span count and a copy of the hot stats."""
        return len(self.spans), {k: (h.calls, h.self_ns, h.total_ns, h.errors)
                                 for k, h in self.hot.items()}

    def summary(self, since=None) -> dict[str, FuncStats]:
        """Per-key stats of everything recorded after ``since`` (a :meth:`mark`)."""
        start, hot0 = since if since is not None else (0, {})
        out: dict[str, FuncStats] = {}
        own = self_times(self.spans)
        for i in range(start, len(self.spans)):
            _, key, _, t0, t1, _ = self.spans[i]
            st = out.get(key)
            if st is None:
                st = out[key] = FuncStats()
            st.calls += 1
            st.self_ns += own[i]
            st.total_ns += t1 - t0
        if since is None:
            for key, n in self.span_errors.items():
                if n:
                    out.setdefault(key, FuncStats()).errors += n
        for key, h in self.hot.items():
            c0, s0, t0, e0 = hot0.get(key, (0, 0, 0, 0))
            if h.calls == c0:
                continue
            st = out.setdefault(key, FuncStats())
            st.calls += h.calls - c0
            st.self_ns += h.self_ns - s0
            st.total_ns += h.total_ns - t0
            st.errors += h.errors - e0
        return out
