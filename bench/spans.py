"""Tracing from outside the library: wrap bohrlab functions, record spans.

``Tracer`` replaces each traced function by a wrapper and rebinds every
bohrlab module attribute that referred to the original (so
``optimize.eval_batch``, ``witness.sup_norm``, ``bohr.chi_bracket`` and the
package re-exports all go through the wrapper).  Leaving the ``with`` block
restores every original.  Spans are kept in memory as (name, start, end,
parent index, task id) and turned into per-layer metrics by
``layer_metrics``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

# (module, function, span name).  Span names drop the leading underscore of
# private helpers.
SPANNED = (
    ("polynomial", "eval_batch", "polynomial.eval_batch"),
    ("polynomial", "grad_batch", "polynomial.grad_batch"),
    ("witness", "_monomial_matrix", "witness.monomial_matrix"),
    ("optimize", "_ascend", "optimize.ascend"),
    ("optimize", "sup_norm", "optimize.sup_norm"),
    ("optimize", "majorant_sup", "optimize.majorant_sup"),
    ("optimize", "bohr_sum", "optimize.bohr_sum"),
    ("optimize", "series_sup", "optimize.series_sup"),
    ("witness", "sign_search", "witness.sign_search"),
    ("witness", "brute_chi", "witness.brute_chi"),
    ("witness", "chi_bracket", "witness.chi_bracket"),
    ("bounds", "j_sum", "bounds.j_sum"),
    ("bounds", "envelope_constant", "bounds.envelope_constant"),
    ("bohr", "k_bracket", "bohr.k_bracket"),
    ("bohr", "bohr_1d_bracket", "bohr.bohr_1d_bracket"),
    ("bohr", "wiener_check", "bohr.wiener_check"),
    ("cli", "emit", "cli.emit"),
)
# Functions returning iterators: the wrapper counts the items they yield.
COUNTED = (
    ("multiindex", "enumerate_lambda", "multiindex.enumerate_lambda"),
    ("multiindex", "partition_shapes", "multiindex.partition_shapes"),
)
KERNELS = ("polynomial.eval_batch", "polynomial.grad_batch")
ESTIMATORS = ("sup_norm", "majorant_sup", "bohr_sum", "series_sup")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    task: int


def _bohrlab_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "bohrlab" or k.startswith("bohrlab."))]


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        clock = self.clock

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.task)
            self._count(name, args, out)
            return out

        return wrapper

    def _count(self, name: str, args: tuple, out) -> None:
        if name in KERNELS:
            P, Z = args[0], args[1]
            self.counts["polynomial.term_evals"] += Z.shape[0] * len(P.tables()[1])
        elif name == "witness.monomial_matrix":
            self.counts["witness.monomial_matrix.entries"] += args[0].shape[0] * len(args[1])
        elif name.split(".")[-1] in ESTIMATORS:
            self.counts["optimize.estimates"] += 1
            self.counts["optimize.converged"] += bool(out.converged)

    def _counted(self, name: str, fn):
        def items(it):
            for item in it:
                self.counts[name + ".items"] += 1
                yield item

        def wrapper(*args, **kwargs):
            return items(fn(*args, **kwargs))

        return wrapper

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = _bohrlab_modules()
        by_name = {m.__name__: m for m in mods}
        table = [(mod, fn, name, self._spanned) for mod, fn, name in SPANNED]
        table += [(mod, fn, name, self._counted) for mod, fn, name in COUNTED]
        for mod, fn, name, make in table:
            orig = getattr(by_name["bohrlab." + mod], fn)
            wrapper = make(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


# --- per-layer metrics ---------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names without unit suffixes)."""
    n = len(spans)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_t: Counter = Counter()
    # names of each span's ancestors, filled in index order (a parent
    # precedes its children)
    open_names: list[frozenset] = [frozenset()] * n
    kernel_in_ascent = 0
    rescore = 0.0
    for i, s in enumerate(spans):
        par = s.parent
        above = open_names[par] | {spans[par].name} if par >= 0 else frozenset()
        open_names[i] = above
        dur = s.end - s.start
        calls[s.name] += 1
        if s.name not in above:  # outermost span of its name
            busy[s.name] += dur
        self_t[s.name] += dur - _covered([(spans[c].start, spans[c].end) for c in children[i]])
        if s.name in KERNELS and "optimize.ascend" in above:
            kernel_in_ascent += 1
        if s.name == "optimize.sup_norm" and par >= 0 and spans[par].name == "witness.sign_search":
            rescore += dur

    term_evals = counts["polynomial.term_evals"]
    kernel_busy = busy["polynomial.eval_batch"] + busy["polynomial.grad_batch"]
    m: dict[str, float] = {}
    for k in KERNELS:
        m[k + ".calls"] = calls[k]
        m[k + ".busy_s"] = busy[k]
    m["polynomial.term_evals"] = term_evals
    m["polynomial.ns_per_term_eval"] = 1e9 * kernel_busy / term_evals if term_evals else 0.0
    m["witness.monomial_matrix.busy_s"] = busy["witness.monomial_matrix"]
    m["witness.monomial_matrix.entries"] = counts["witness.monomial_matrix.entries"]
    m["optimize.ascend.calls"] = calls["optimize.ascend"]
    m["optimize.ascend.self_s"] = self_t["optimize.ascend"]
    m["optimize.ascend.kernel_calls"] = kernel_in_ascent
    for e in ESTIMATORS:
        m[f"optimize.{e}.calls"] = calls["optimize." + e]
        m[f"optimize.{e}.busy_s"] = busy["optimize." + e]
    est = counts["optimize.estimates"]
    m["optimize.converged_frac"] = counts["optimize.converged"] / est if est else 0.0
    for w in ("sign_search", "brute_chi"):
        m[f"witness.{w}.calls"] = calls["witness." + w]
        m[f"witness.{w}.busy_s"] = busy["witness." + w]
        m[f"witness.{w}.self_s"] = self_t["witness." + w]
    ss = busy["witness.sign_search"]
    m["witness.sign_search.rescore_share"] = rescore / ss if ss else 0.0
    m["witness.chi_bracket.self_s"] = self_t["witness.chi_bracket"]
    for b in ("j_sum", "envelope_constant"):
        m[f"bounds.{b}.calls"] = calls["bounds." + b]
        m[f"bounds.{b}.busy_s"] = busy["bounds." + b]
    m["multiindex.partition_shapes.items"] = counts["multiindex.partition_shapes.items"]
    m["multiindex.enumerate_lambda.items"] = counts["multiindex.enumerate_lambda.items"]
    m["bohr.k_bracket.self_s"] = self_t["bohr.k_bracket"]
    m["bohr.bohr_1d_bracket.busy_s"] = busy["bohr.bohr_1d_bracket"]
    m["bohr.wiener_check.self_s"] = self_t["bohr.wiener_check"]
    m["cli.emit.busy_s"] = busy["cli.emit"]
    return m
