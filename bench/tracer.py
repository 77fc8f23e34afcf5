"""Span tracer that wraps a package's public functions from the outside.

The program under test is not edited.  ``Tracer`` replaces each target
function with a timing wrapper wherever the package's modules refer to it:
in its defining module and in every module that imported it by name (so a
call from ``experiment`` into ``quantize.quantize_effective`` is seen), and
on the class for a method target.  Every call becomes a span with a parent
id; a span's self time is its duration minus the durations of its direct
child spans.  Spans stay in memory and are reduced when asked.

A target that no longer exists is recorded in ``absent`` and skipped, so the
benchmark keeps running after a refactor deletes a function.  Leaving the
``with`` block puts back every attribute that was replaced.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Context manager that traces ``targets`` of ``package``.

    targets: names relative to the package, ``"module.function"`` or
        ``"module.Class.method"``.
    counters: optional {target: (counter_name, fn)}; on each call of target,
        ``fn(args, kwargs)`` is added to ``counts[counter_name]``.  Counts
        are computed from the arguments, not timed.
    """

    def __init__(self, package: str, targets, counters=None):
        self.package = package
        self.targets = list(targets)
        self.counters = dict(counters or {})
        self.spans: list = []  # (span id, parent id or -1, target, t0 ns, t1 ns)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (target, exception type name) -> calls
        self.absent: list = []
        self._stack: list = []
        self._next_id = 0
        self._restore: list = []  # (owner, attribute, original), in patch order

    # ------------------------------------------------------------ patching

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _patch(self, target: str) -> None:
        module_name, _, attr_path = target.partition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            self.absent.append(target)
            return
        owner_path, _, attr = attr_path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        namespace = getattr(owner, "__dict__", {})
        if attr not in namespace:
            self.absent.append(target)
            return
        original = namespace[attr]
        wrapper = self._wrap(target, original)
        if owner_path:  # a method: the class object is shared by every importer
            self._swap(owner, attr, wrapper)
            return
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, key, wrapper)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        counter = self.counters.get(target)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[(target, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, target, t0, t1))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ----------------------------------------------------------- reduction

    def summary(self) -> dict:
        """{target: (calls, self_ns)} for every target, absent ones as (0, 0)."""
        child_ns: defaultdict = defaultdict(int)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = {target: [0, 0] for target in self.targets}
        for span_id, _, target, t0, t1 in self.spans:
            entry = out[target]
            entry[0] += 1
            entry[1] += (t1 - t0) - child_ns[span_id]
        return {target: tuple(v) for target, v in out.items()}
