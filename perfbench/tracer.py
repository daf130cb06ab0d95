"""Outside-in tracer: spans around calls into a package, recorded from outside it.

`Tracer.install` replaces every public function of every loaded module of
a package with a timing wrapper, in every module namespace that binds
that function (so ``from .fading import integrate_against_density``
inside ``waterfill`` is traced as well as the original), plus any listed
methods.  Internal calls that go through a module attribute, such as
``hopopt``'s ``_waterfill.solve``, are caught because the attribute is
replaced.  Spans live in memory as ``[name, start, end, parent, request]``
and are analysed or written out after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name, fn, tally=None):
        """``fn`` recording one span per call; ``tally(args, kwargs)`` adds a count."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tally is not None:
                key, amount = tally(args, kwargs)
                tracer.counts[key] += amount
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self, package, methods=(), tallies=None):
        """Wrap the package's public functions wherever bound, and ``methods``.

        ``methods`` lists ``(class, attribute, span name)``; ``tallies`` maps a
        span name to its tally callable.
        """
        tallies = tallies or {}
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    label = f"{short}.{attr}"
                    wrappers[id(obj)] = self.wrap(label, obj, tallies.get(label))
        # each wrapper keeps its original alive, so an id found here is that function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._replace(mod, attr, wrappers[id(obj)])
        for cls, attr, label in methods:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(label, raw.__func__, tallies.get(label)))
            else:
                new = self.wrap(label, raw, tallies.get(label))
            self._replace(cls, attr, new)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(k[START], s[START]), min(k[END], s[END])) for k in children.get(i, ())]
        out.append(s[END] - s[START] - covered([k for k in kids if k[1] > k[0]]))
    return out


def has_ancestor(spans, i, pred) -> bool:
    """True when some ancestor of span i has a name satisfying ``pred``."""
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds ``s`` and ``self_s``.

    Busy time counts only spans with no ancestor of the same name, so a
    recursive call is not timed twice.
    """
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not has_ancestor(spans, i, lambda n, name=s[NAME]: n == name):
            row["s"] += s[END] - s[START]
    return dict(out)


def group(spans, pred):
    """(calls, busy seconds) of all spans whose names satisfy ``pred``."""
    calls, busy = 0, 0.0
    for i, s in enumerate(spans):
        if pred(s[NAME]):
            calls += 1
            if not has_ancestor(spans, i, pred):
                busy += s[END] - s[START]
    return calls, busy
