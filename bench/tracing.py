"""In-memory spans recorded from the bench side of each layer boundary.

The program carries no tracing of its own yet, so the traced run wraps
the callables at the layer boundaries — resolved by name at start-up —
with a recorder that appends ``(name, start, end, parent, solve)`` to a
list; nothing is written until the run ends.  A layer's *self time* is
its span minus the spans it directly caused, so the self times of one
solve add up to the root span exactly and the shares below are a ledger
of where a protected solve goes.
"""

from __future__ import annotations

import importlib
import json
import time

#: span name -> "module:Class.attribute" of the callable it wraps.
TARGETS = {
    "protect.wrap_matrix": "repro.protect.config:ProtectionConfig.wrap_matrix",
    "protect.spmv": "repro.protect.engine:DeferredVerificationEngine.spmv",
    "protect.spmm": "repro.protect.engine:DeferredVerificationEngine.spmm",
    "protect.read": "repro.protect.engine:DeferredVerificationEngine.read",
    "protect.write": "repro.protect.engine:DeferredVerificationEngine.write",
    "protect.begin_iteration":
        "repro.protect.engine:DeferredVerificationEngine.begin_iteration",
    "protect.finalize": "repro.protect.engine:DeferredVerificationEngine.finalize",
    "csr.matvec": "repro.csr.matrix:CSRMatrix.matvec",
}

ROOT_SPAN = "solvers.solve"

#: Solves whose spans a trace file keeps (the ledger uses all of them).
KEEP_SOLVES = 3

#: ledger line -> the span names whose self time it sums.
LEDGER = {
    "protect.spmv_share": ("protect.spmv", "protect.spmm"),
    "protect.vector_share": ("protect.read", "protect.write",
                             "protect.begin_iteration"),
    "protect.finalize_share": ("protect.finalize",),
    "solvers.self_share": (ROOT_SPAN,),
}


def resolve(path: str):
    """``(owner, attribute, callable)`` for a ``module:Class.attr`` path,
    or ``None`` when a later change has removed it."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = dotted.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._solve = 0
        self._patches = []
        for name, path in TARGETS.items():
            found = resolve(path)
            if found is None:
                self.missing.append(f"{name} ({path})")
            else:
                owner, attr, fn = found
                self._patches.append((owner, attr, fn, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, t0, t1, parent, self._solve)

        return traced

    def traced_solve(self, solve, *args, **kwargs):
        """Run ``solve`` as one root span with every target wrapped.

        The wrappers are installed for this call only, so the untraced
        ops interleaved with it run the program exactly as shipped.
        """
        self._solve += 1
        root = self._wrap(ROOT_SPAN, solve)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return root(*args, **kwargs)
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)

    # -- reading the spans ----------------------------------------------
    def ledger(self) -> dict:
        """Shares of root time by self time, over every traced solve."""
        self_time = [0.0] * len(self.spans)
        for index, (_, t0, t1, parent, _) in enumerate(self.spans):
            self_time[index] += t1 - t0
            if parent >= 0:
                self_time[parent] -= t1 - t0
        by_name: dict[str, float] = {}
        for (name, *_), own in zip(self.spans, self_time):
            by_name[name] = by_name.get(name, 0.0) + own
        total = sum(t1 - t0 for name, t0, t1, *_ in self.spans if name == ROOT_SPAN)
        if total <= 0.0:
            return {line: 0.0 for line in (*LEDGER, "harness.ledger_coverage")}
        shares = {
            line: sum(by_name.get(name, 0.0) for name in names) / total
            for line, names in LEDGER.items()
        }
        shares["harness.ledger_coverage"] = sum(shares.values())
        return shares

    def dump(self, path, extra_spans=()) -> None:
        """Write the spans of the last ``KEEP_SOLVES`` solves as JSON.

        ``extra_spans`` are ``(name, start, end, parent, id)`` tuples from
        elsewhere (the serve workload turns job events into spans).
        """
        first = self._solve - KEEP_SOLVES + 1
        rows = [
            {"id": index, "name": name, "start": t0, "end": t1,
             "parent": parent, "solve": solve}
            for index, (name, t0, t1, parent, solve) in enumerate(self.spans)
            if solve >= first
        ]
        rows += [
            {"id": f"x{index}", "name": name, "start": t0, "end": t1,
             "parent": parent, "solve": ident}
            for index, (name, t0, t1, parent, ident) in enumerate(extra_spans)
        ]
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter seconds (job spans: unix time)",
                       "spans": rows}, fh)
