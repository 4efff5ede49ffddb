"""In-memory tracing shim for the benchmark's traced run.

The shim replaces public functions of ``spinor_ternary`` with timing
wrappers in every package module that holds a reference to them, so a call
is traced wherever the calling module looked the name up.  Nothing in the
package itself changes; ``uninstall`` puts the originals back.

Three kinds of wrapper:

- ``span``: one record per call (id, parent id, request id, name, start,
  end, self time), for calls made a few times per request;
- ``agg``: aggregated calls, total and self seconds per name, for hot leaf
  functions (``arith`` and the criterion's per-n calls);
- ``count``: a bare call counter, for leaves too cheap to time.

Self time is a call's duration minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from time import perf_counter

SPAN, AGG, COUNT = "span", "agg", "count"

# (metric prefix, module, attribute, kind); "forms_core.witness" is the
# RepresentedSet.witness method, patched on the class.
TARGETS = (
    ("catalog.load", "catalog", "load_default_catalog", SPAN),
    ("catalog.load", "catalog", "load_catalog", SPAN),
    ("cli_verify.main", "cli_verify", "main", SPAN),
    ("cli_verify.exceptional_general_mask", "cli_verify", "exceptional_general_mask", SPAN),
    ("cli_verify.squareclass_mask", "cli_verify", "squareclass_mask", SPAN),
    ("cli_verify.closed_form_missed_mask", "cli_verify", "closed_form_missed_mask", SPAN),
    ("cli_verify.write_report", "cli_verify", "write_report", SPAN),
    ("forms_core.enumerate_represented", "forms_core", "enumerate_represented", SPAN),
    ("forms_core.witness", "forms_core", "RepresentedSet.witness", AGG),
    ("local_solver.genus_mask", "local_solver", "genus_mask", SPAN),
    ("local_solver.local_mask", "local_solver", "local_mask", SPAN),
    ("local_solver.local_represents", "local_solver", "local_represents", SPAN),
    ("local_solver.locally_represented", "local_solver", "locally_represented", AGG),
    ("local_solver.genus_represents", "local_solver", "genus_represents", AGG),
    ("spinor_theory.spinor_exceptional_general", "spinor_theory", "spinor_exceptional_general", AGG),
    ("spinor_theory.classify", "spinor_theory", "classify", SPAN),
    ("spinor_theory.squareclass_match", "spinor_theory", "squareclass_match", AGG),
    ("spinor_theory.in_Mt", "spinor_theory", "in_Mt", COUNT),
    ("arith.factor", "arith", "factor", AGG),
    ("arith.hilbert", "arith", "hilbert", AGG),
    ("arith.is_padic_square", "arith", "is_padic_square", AGG),
    ("arith.ord_p", "arith", "ord_p", COUNT),
)


def enumeration_stats(form, bound: int, result) -> dict[str, int]:
    """Scanned box, hits and array bytes of one enumerate_represented call.

    ``points`` and ``bytes`` are computed, not observed: the box is the one
    the enumerator scans (x >= 0, |y| <= x2, |z| <= x3, with
    x_i^2 <= 2 * bound * adj(M_F)_ii / det(M_F)), and the arrays are a bool
    member mask plus an int32 witness triple per n in 0..bound.
    """
    adj = form.gram_adjugate()
    det = form.gram_det()
    x1, x2, x3 = (math.isqrt(2 * bound * adj[i][i] // det) for i in range(3))
    return {
        "points": (x1 + 1) * (2 * x2 + 1) * (2 * x3 + 1),
        "hits": int(result.member_mask()[1:].sum()),
        "bytes": (bound + 1) * (1 + 3 * 4),
    }


class Tracer:
    """Spans, aggregates and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = {}
        self.enum = {"points": 0, "hits": 0, "bytes": 0}
        self.request = 0
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id or parent span id, child seconds]
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn, kind: str):
        stack = self._stack
        if kind == COUNT:
            counts = self.counts
            counts.setdefault(name, 0)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans = self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        on_result = self._on_enumerate if name == "forms_core.enumerate_represented" else None

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = next(self._ids) if kind == SPAN else parent
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
                if kind == SPAN:
                    spans.append((span_id, parent, self.request, name, t0, t1, own))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _on_enumerate(self, args, kwargs, result) -> None:
        form = args[0] if args else kwargs["form"]
        bound = args[1] if len(args) > 1 else kwargs["bound"]
        for key, value in enumeration_stats(form, bound, result).items():
            self.enum[key] += value

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Patch every target in every loaded spinor_ternary module that
        refers to it (the package namespace included)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "spinor_ternary" or modname.startswith("spinor_ternary."))
        ]
        for name, modname, attr, kind in TARGETS:
            home = sys.modules[f"spinor_ternary.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, kind), original)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, kind)
            for mod in owners:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper, original)

    def _patch(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -------------------------------------------------------------- results

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return self.agg.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def dump(self, path) -> None:
        """Write spans, per-name totals and self times as JSON."""
        doc = {
            "span_fields": ["id", "parent", "request", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "totals": {
                name: {"calls": c, "s": s, "self_s": own} for name, (c, s, own) in sorted(self.agg.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "enumerate_computed": self.enum,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
