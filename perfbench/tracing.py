"""Spans around the calls into each stabcert layer, for the traced run.

The wrappers are installed from outside the package, on the module or class
attribute each caller looks the function up on, and only inside
``installed(tracer)``; leaving the block puts the original objects back.
A span records its name, start, end and parent, and spans stay in memory
until the run ends.  Counts are taken at the same boundaries.

A span's self time is its duration minus the durations of its children.
Calls are strictly nested in this single-threaded program, so the children
never overlap and the self times of all spans sum to the root spans' time.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import stabcert.gf2
import stabcert.policy
import stabcert.polytope
import stabcert.runner
import stabcert.syndrome
from stabcert import ConstraintSet, DisagreementSpectrum, InstanceSpec, PolicyChoice

ROOT = "runner.run"


class Tracer:
    """In-memory span store plus counters recorded at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count ("calls"), inclusive ("s") and self seconds."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        child_sum = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child_sum, parents[has_parent], dur[has_parent])
        self_time = dur - child_sum
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out


@dataclass(frozen=True)
class _Target:
    owner: Any
    attr: str
    span: str


# (owner, attribute, span name): each function at the namespace its callers
# read it from.  ``runner`` imports most names directly, so its copies are
# the ones the loop calls.
TARGETS: tuple[_Target, ...] = (
    _Target(stabcert.runner, "solve_endpoints", "polytope.solve"),
    _Target(stabcert.polytope, "linprog", "polytope.highs"),
    _Target(ConstraintSet, "with_exact", "polytope.constraint"),
    _Target(stabcert.runner, "add_band", "polytope.constraint"),
    _Target(stabcert.polytope, "fwht_inplace", "kernels.fwht"),
    _Target(stabcert.policy, "fwht_inplace", "kernels.fwht"),
    _Target(stabcert.syndrome, "fwht_inplace", "kernels.fwht"),
    _Target(stabcert.polytope, "pivot_update", "kernels.pivot"),
    _Target(stabcert.polytope, "character_signs", "syndrome.signs"),
    _Target(InstanceSpec, "realize", "syndrome.realize"),
    _Target(stabcert.runner, "walsh", "syndrome.walsh"),
    _Target(stabcert.runner, "disagreement_spectrum", "policy.disagreement"),
    _Target(PolicyChoice, "select_gauge", "policy.select"),
    _Target(stabcert.runner, "select_single_label", "policy.select"),
    _Target(DisagreementSpectrum, "total_unqueried", "policy.scan"),
    _Target(DisagreementSpectrum, "max_unqueried", "policy.scan"),
    _Target(stabcert.policy, "greedy_max_weight_basis", "gf2.greedy"),
    _Target(stabcert.policy, "sample_uniform_gauge", "gf2.sample"),
    _Target(stabcert.gf2, "sample_uniform_gauge", "gf2.sample"),
    _Target(stabcert.runner, "measure_label", "shots.measure"),
)


def _original(target: _Target) -> Any:
    if isinstance(target.owner, type):
        return target.owner.__dict__[target.attr]
    return getattr(target.owner, target.attr)


def _on_exit(tracer: Tracer, span: str) -> Callable[..., None] | None:
    """Counter updates for a span, from its arguments, the (HiGHS, pivot)
    call counts at its start, and its result."""
    counts = tracer.counts
    if span == "polytope.solve":

        def solve(args, before, out):
            counts["polytope.rows"] += 1 + len(args[0].entries)
            if out.status == "infeasible":
                counts["polytope.infeasible"] += 1
            # A fallback ran the backend that was not chosen as well.
            if (
                counts["polytope.highs.calls"] > before[0]
                and counts["kernels.pivot.calls"] > before[1]
            ):
                counts["polytope.fallbacks"] += 1

        return solve
    if span == "kernels.fwht":

        def fwht(args, before, out):
            # One read and one write of the vector per butterfly pass.
            size = args[0].shape[0]
            counts["kernels.fwht.bytes"] += 16 * size * max(1, size.bit_length() - 1)

        return fwht
    if span == "kernels.pivot":

        def pivot(args, before, out):
            # One read and one write of the tableau per rank-1 update.
            counts["kernels.pivot.bytes"] += 16 * args[0].size

        return pivot
    return None


def _wrap(tracer: Tracer, fn: Callable, span: str) -> Callable:
    nid = tracer.name_id(span)
    calls_key = span + ".calls"
    on_exit = _on_exit(tracer, span)
    counts = tracer.counts
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        counts[calls_key] += 1
        before = (counts["polytope.highs.calls"], counts["kernels.pivot.calls"])
        idx = begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(idx)
        if on_exit is not None:
            on_exit(args, before, out)
        return out

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install the span wrappers for the duration of the block."""
    saved = [(t, _original(t)) for t in TARGETS]
    try:
        for target, fn in saved:
            setattr(target.owner, target.attr, _wrap(tracer, fn, target.span))
        yield tracer
    finally:
        for target, fn in saved:
            setattr(target.owner, target.attr, fn)
