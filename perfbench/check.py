"""Output checks for one certification run, run outside the timed region.

A run passes when every round solved; for exact data the final interval
contains the true fidelity; for exact data from the identity gauge the first
interval equals the paper's closed form (``one_gauge_certificate``); and the
final endpoints agree with an LP that this module builds itself from the
``measured`` values in the trace and solves with HiGHS's interior-point
method, which shares no code with the solvers under test.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import hadamard
from scipy.optimize import linprog

from stabcert import Label, RunTrace, one_gauge_certificate

CLOSED_FORM_ATOL = 1e-9
RESOLVE_ATOL = 1e-7
TRUTH_ATOL = 1e-9

_IPM_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "ipm_optimality_tolerance": 1e-12,
}


class RunChecker:
    """Checks traces; caches the +-1 character table per qubit count."""

    def __init__(self) -> None:
        self._signs: dict[int, np.ndarray] = {}

    def _table(self, n: int) -> np.ndarray:
        # Sylvester's Hadamard matrix: entry (u, s) is (-1)^(u.s).
        if n not in self._signs:
            self._signs[n] = hadamard(1 << n).astype(np.float64)
        return self._signs[n]

    def resolve(self, trace: RunTrace) -> tuple[float, float]:
        """[min p(0), max p(0)] over distributions consistent with the trace."""
        n = trace.config.n
        exact = trace.config.shots.exact
        bands: dict[int, tuple[float, float]] = {}
        for rnd in trace.rounds:
            for token, value in rnd.measured.items():
                bits = Label.from_token(token, n).bits
                half = 0.0 if exact else trace.eta
                lo = min(1.0, max(-1.0, value - half))
                hi = min(1.0, max(-1.0, value + half))
                old_lo, old_hi = bands.get(bits, (-1.0, 1.0))
                bands[bits] = (max(lo, old_lo), min(hi, old_hi))
        table = self._table(n)
        size = 1 << n
        eq_rows, eq_vals, ub_rows, ub_vals = [np.ones(size)], [1.0], [], []
        for bits, (lo, hi) in sorted(bands.items()):
            if lo == hi:
                eq_rows.append(table[bits])
                eq_vals.append(lo)
            else:
                ub_rows += [table[bits], -table[bits]]
                ub_vals += [hi, -lo]
        ends = []
        for sense in (1.0, -1.0):
            c = np.zeros(size)
            c[0] = sense
            res = linprog(
                c,
                A_ub=np.array(ub_rows) if ub_rows else None,
                b_ub=np.array(ub_vals) if ub_vals else None,
                A_eq=np.array(eq_rows),
                b_eq=np.array(eq_vals),
                bounds=(0.0, 1.0),
                method="highs-ipm",
                options=_IPM_OPTIONS,
            )
            if res.status != 0:
                raise ValueError(f"reference LP failed: {res.message}")
            ends.append(float(res.x[0]))
        return ends[0], ends[1]

    def problems(self, trace: RunTrace) -> list[str]:
        """Every check the trace fails; empty when the run is correct."""
        out: list[str] = []
        bad = [r.t for r in trace.rounds if r.status != "solved"]
        if bad or trace.stop_reason == "infeasible":
            return [f"rounds {bad} not solved (stop {trace.stop_reason})"]
        cfg = trace.config
        lower, upper = trace.final_lower, trace.final_upper
        if cfg.shots.exact:
            truth = trace.true_fidelity
            if not lower - TRUTH_ATOL <= truth <= upper + TRUTH_ATOL:
                out.append(f"truth {truth} outside [{lower}, {upper}]")
            if cfg.initial_gauge == "identity":
                first = trace.rounds[0]
                cert = one_gauge_certificate(list(first.measured.values()))
                if (
                    abs(first.lower - cert.lower) > CLOSED_FORM_ATOL
                    or abs(first.upper - cert.upper) > CLOSED_FORM_ATOL
                ):
                    out.append(
                        f"first round [{first.lower}, {first.upper}] != closed "
                        f"form [{cert.lower}, {cert.upper}]"
                    )
        try:
            ref_lo, ref_hi = self.resolve(trace)
        except ValueError as exc:
            return out + [str(exc)]
        if abs(ref_lo - lower) > RESOLVE_ATOL or abs(ref_hi - upper) > RESOLVE_ATOL:
            out.append(
                f"final [{lower}, {upper}] != re-solved [{ref_lo}, {ref_hi}]"
            )
        return out
