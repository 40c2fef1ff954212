"""Feasible polytopes of syndrome distributions and the endpoint LPs.

The feasible set after some Walsh coefficients have been measured is the set
of probability vectors over F_2^n whose transform matches each measured value
exactly (equality constraint) or up to a confidence radius (band constraint).
Minimizing and maximizing the zero-syndrome probability over this polytope
gives a certified two-sided fidelity interval together with the endpoint
witness distributions that attain it.

Two solver backends sit behind ``solve_endpoints``, which picks one from
the constraint set: a built-in dense two-phase simplex (exact pivoting plus
a final basis refresh; its hot loop lives in :mod:`stabcert.kernels`) for
exact data at n <= 6, and persistent warm-started HiGHS models per run
(:class:`HighsModel`), one per sense, for everything else.  A run adds each
new label to both models as one parity row and re-solves each endpoint from
its own model's last optimal basis and factor; a call without a model builds
a fresh one and solves cold.  The dense simplex solves both endpoints from
one phase 1, which reads no cost, and one factorization of its final basis;
only phase 2 runs per sense.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np
# Not called here: perfbench/tracing.py wraps this name for its
# polytope.highs span and needs it to resolve.
from scipy.optimize import linprog  # noqa: F401
from scipy.optimize._highspy import _core as _highs

from stabcert.gf2 import Label
from stabcert.kernels import fwht_inplace, pivot_update
from stabcert.syndrome import SyndromeDistribution, character_signs, walsh

__all__ = [
    "ConstraintSet",
    "EndpointResult",
    "HighsModel",
    "SolverError",
    "build_exact_constraints",
    "add_band",
    "solve_endpoints",
]

# Required accuracy for endpoints and witness feasibility.
FEASIBILITY_ATOL = 1e-9

# Exact data at n <= this runs on the dense simplex, all else on HiGHS.
# Each band adds two rows and two slack columns to the dense tableau, so
# with bands HiGHS is faster at every n (Dirichlet witness runs at n = 6:
# 0.20 s dense, 0.03 s HiGHS); on exact data it is twice as fast from n = 7
# (0.16 s against 0.08 s).  Below that both take about the same time, and
# the dense vertex witnesses lead the witness policy to narrower intervals.
_DENSE_MAX_N = 6

_log = logging.getLogger(__name__)

# One LP's outcome: ("solved", x) or ("infeasible", None).
_Solved = tuple[str, np.ndarray | None]


class SolverError(RuntimeError):
    """A backend failed to produce a validated solution."""


def _clip_mu(x: float) -> float:
    return min(1.0, max(-1.0, float(x)))


@dataclass(frozen=True)
class ConstraintSet:
    """Measured Walsh constraints: label -> (lo, hi), exact when lo == hi.

    Immutable; ``with_exact`` and :func:`add_band` return new sets with the
    intersected (never loosened) constraint.  The zero label is rejected:
    normalization is implicit in the simplex constraint.
    """

    n: int
    entries: Mapping[int, tuple[float, float]]

    def __post_init__(self) -> None:
        clean: dict[int, tuple[float, float]] = {}
        for bits, (lo, hi) in self.entries.items():
            if not 1 <= bits < (1 << self.n):
                raise ValueError(f"constraint label {bits!r} out of range or zero")
            clean[int(bits)] = (_clip_mu(lo), _clip_mu(hi))
        object.__setattr__(self, "entries", clean)

    @classmethod
    def empty(cls, n: int) -> "ConstraintSet":
        return cls(n, {})

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[Label]:
        return [Label(self.n, b) for b in sorted(self.entries)]

    def kind(self, u: int | Label) -> str:
        bits = u.bits if isinstance(u, Label) else u
        lo, hi = self.entries[bits]
        return "exact" if lo == hi else "band"

    def _intersected(self, bits: int, lo: float, hi: float) -> "ConstraintSet":
        """A copy with one more (clipped) constraint.  Only the new entry is
        validated; the others were checked when they were added."""
        if not 1 <= bits < (1 << self.n):
            raise ValueError(f"constraint label {bits!r} out of range or zero")
        bits = int(bits)
        new = dict(self.entries)
        if bits in new:
            old_lo, old_hi = new[bits]
            lo, hi = max(old_lo, lo), min(old_hi, hi)
        new[bits] = (lo, hi)
        out = object.__new__(ConstraintSet)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "entries", new)
        return out

    def with_exact(self, u: int | Label, mu: float) -> "ConstraintSet":
        bits = u.bits if isinstance(u, Label) else u
        if abs(mu) > 1.0 + FEASIBILITY_ATOL:
            raise ValueError(f"expectation {mu!r} outside [-1, 1]")
        v = _clip_mu(mu)
        return self._intersected(bits, v, v)

    def has_empty_band(self) -> bool:
        """True when some intersection came out empty (lo > hi)."""
        return any(lo > hi for lo, hi in self.entries.values())

    def to_json_dict(self) -> dict:
        constraints = []
        for bits in sorted(self.entries):
            lo, hi = self.entries[bits]
            if lo == hi:
                constraints.append(
                    {"label": Label(self.n, bits).to_token(), "kind": "exact", "values": [lo]}
                )
            else:
                constraints.append(
                    {"label": Label(self.n, bits).to_token(), "kind": "band", "values": [lo, hi]}
                )
        return {"n": self.n, "constraints": constraints}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstraintSet":
        n = int(data["n"])
        entries: dict[int, tuple[float, float]] = {}
        for item in data["constraints"]:
            bits = Label.from_token(item["label"], n).bits
            vals = item["values"]
            if item["kind"] == "exact":
                entries[bits] = (float(vals[0]), float(vals[0]))
            elif item["kind"] == "band":
                entries[bits] = (float(vals[0]), float(vals[1]))
            else:
                raise ValueError(f"unknown constraint kind {item['kind']!r}")
        return cls(n, entries)


def build_exact_constraints(
    p_true: SyndromeDistribution, labels: Iterable[Label]
) -> ConstraintSet:
    """Exact constraints at the true Walsh coefficients of ``p_true``."""
    spectrum = walsh(p_true)
    cset = ConstraintSet.empty(p_true.n)
    for lab in labels:
        cset = cset.with_exact(lab, spectrum.value(lab))
    return cset


def add_band(
    c: ConstraintSet, u: int | Label, mu_hat: float, eta: float
) -> ConstraintSet:
    """Add the clipped band [mu_hat - eta, mu_hat + eta], intersecting repeats."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta!r}")
    bits = u.bits if isinstance(u, Label) else u
    return c._intersected(bits, _clip_mu(mu_hat - eta), _clip_mu(mu_hat + eta))


@dataclass(frozen=True)
class EndpointResult:
    """Certified interval [lower, upper] with the attaining witnesses."""

    lower: float
    upper: float
    witness_lo: SyndromeDistribution | None
    witness_hi: SyndromeDistribution | None
    status: str  # "solved" | "infeasible"
    solver: str

    def __post_init__(self) -> None:
        if self.status == "solved" and self.lower > self.upper + FEASIBILITY_ATOL:
            raise ValueError(
                f"endpoint inversion: lower {self.lower!r} > upper {self.upper!r}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        out: dict = {
            "L": self.lower,
            "U": self.upper,
            "width": self.width,
            "status": self.status,
            "solver": self.solver,
        }
        if include_witnesses and self.status == "solved":
            out["witnesses"] = {
                "lo": self.witness_lo.to_json_dict(),
                "hi": self.witness_hi.to_json_dict(),
            }
        return out


def _lp_rows(cset: ConstraintSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equality rows (A_eq, b_eq) and band rows (A_band, [lo, hi] bounds).

    The +-1 rows (-1)^(u.s) over the sorted labels come from one parity
    table, row 0 of A_eq being the normalization."""
    size = 1 << cset.n
    labels = sorted(cset.entries)
    bounds = np.array([cset.entries[bits] for bits in labels]).reshape(-1, 2)
    s = np.arange(size, dtype=np.uint64)
    parity = np.bitwise_count(np.array(labels, dtype=np.uint64)[:, None] & s) & 1
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    exact = bounds[:, 0] == bounds[:, 1]
    a_eq = np.vstack([np.ones(size), signs[exact]])
    b_eq = np.concatenate([[1.0], bounds[exact, 0]])
    return a_eq, b_eq, signs[~exact], bounds[~exact]


class HighsModel:
    """Two persistent HiGHS models for the endpoint LPs of a run, one per sense.

    Columns are the 2^n probabilities, bounded to [0, 1]; row 0 is the
    normalization.  Given row 0, the Walsh constraint a_u.p in [lo, hi] is
    the parity row sum_{s: u.s odd} p_s in [(1 - hi)/2, (1 - lo)/2], which
    has 2^(n-1) unit coefficients instead of 2^n signed ones.  Each label
    becomes one such row in both models, added once: an equality row for an
    exact value, a ranged row for a band, whose bounds are changed in place
    when a repeat tightens it.  The min model has cost +p(0) and the max
    model -p(0), set once, so each keeps its own basis and factor from call
    to call and the dual simplex restarts from a dual-feasible basis with
    the new rows basic.

    This class is the only user of scipy's private ``_highspy`` binding.
    """

    def __init__(self, n: int):
        self.n = n
        self._models: tuple | None = None  # (min, max), built on first use
        self._rows: dict[int, tuple[int, float, float]] = {}  # bits -> row, lo, hi
        self._warm = False

    @property
    def warm(self) -> bool:
        """True when the next solve restarts from the last optimal bases."""
        return self._warm

    def reset(self) -> None:
        """Forget the last bases: the next solve starts both models cold."""
        self._warm = False

    def _build(self) -> None:
        size = 1 << self.n
        models = []
        for sense in (+1.0, -1.0):
            h = _highs._Highs()
            h.setOptionValue("output_flag", False)
            h.setOptionValue("primal_feasibility_tolerance", 1e-10)
            h.setOptionValue("dual_feasibility_tolerance", 1e-10)
            h.addVars(size, np.zeros(size), np.ones(size))
            h.changeColCost(0, sense)
            h.addRow(1.0, 1.0, size, np.arange(size, dtype=np.int32), np.ones(size))
            models.append(h)
        self._models = tuple(models)
        self._rows = {}
        self._warm = False

    def _sync(self, cset: ConstraintSet) -> None:
        """Add the rows of new labels and tighten changed bounds."""
        if cset.n != self.n:
            raise ValueError(f"model is for n={self.n}, constraints for n={cset.n}")
        if self._models is None or not self._rows.keys() <= cset.entries.keys():
            self._build()
        for bits in sorted(cset.entries):
            lo, hi = cset.entries[bits]
            known = self._rows.get(bits)
            if known is not None and known[1:] == (lo, hi):
                continue
            row_lo, row_hi = (1.0 - hi) / 2.0, (1.0 - lo) / 2.0
            if known is None:
                odd = np.flatnonzero(character_signs(self.n, bits) < 0).astype(np.int32)
                ones = np.ones(len(odd))
                for h in self._models:
                    h.addRow(row_lo, row_hi, len(odd), odd, ones)
                row = self._models[0].getNumRow() - 1
            else:
                row = known[0]
                for h in self._models:
                    h.changeRowBounds(row, row_lo, row_hi)
            self._rows[bits] = (row, lo, hi)

    def solve(self, cset: ConstraintSet) -> tuple[_Solved, _Solved]:
        """Both LPs: (min p(0), max p(0)), each as (status, x)."""
        self._sync(cset)
        lo_model, hi_model = self._models
        if not self._warm:
            lo_model.clearSolver()
            hi_model.clearSolver()
        self._warm = False
        lo = _read_solution(lo_model, lo_model.run())
        hi = _read_solution(hi_model, hi_model.run())
        self._warm = lo[0] == hi[0] == "solved"
        return lo, hi


def _read_solution(h, run_status) -> _Solved:
    status = h.getModelStatus()
    if status in (
        _highs.HighsModelStatus.kInfeasible,
        _highs.HighsModelStatus.kUnboundedOrInfeasible,
    ):
        return "infeasible", None
    if run_status == _highs.HighsStatus.kError or status != _highs.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS ended with {h.modelStatusToString(status)}")
    return "solved", np.array(h.getSolution().col_value)


def _standard_form(
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    a_band: np.ndarray,
    band_bounds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Assemble [A | slacks] x = b with x >= 0; returns (A, b, n_vars).

    Band j becomes two rows: row + s_2j = hi and row - s_2j+1 = lo."""
    n_vars = a_eq.shape[1]
    n_eq = a_eq.shape[0]
    n_band = len(a_band)
    a = np.zeros((n_eq + 2 * n_band, n_vars + 2 * n_band))
    a[:n_eq, :n_vars] = a_eq
    a[n_eq:, :n_vars] = np.repeat(a_band, 2, axis=0)
    np.fill_diagonal(a[n_eq:, n_vars:], np.tile([1.0, -1.0], n_band))
    b = np.concatenate([b_eq, band_bounds[:, ::-1].ravel()])
    return a, b, n_vars


class _Simplex:
    """Two-phase dense tableau simplex for min c.x, A x = b, x >= 0.

    Phase 1 (``phase1``) minimizes the artificial mass and reads only
    (A, b), so one phase 1 serves every cost vector: ``phase2(c)`` restarts
    from the saved feasible basis and its factorization, and the two
    endpoint LPs share both.

    Dantzig pricing with a switch to Bland's rule after a stall. Whenever a
    phase claims optimality the tableau is rebuilt exactly from the original
    data for the current basis (refactorization); pivoting resumes if the
    clean reduced costs expose remaining progress. Degenerate instances can
    take hundreds of pivots, and without the rebuild the accumulated drift
    in the cost row can stop a phase early.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = a.copy()
        b = b.copy()
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        self.m, self.ncol = m, ncol = a.shape
        self.total = total = ncol + m
        self.tableau = np.zeros((m + 1, total + 1))
        self.tableau[:m, :ncol] = a
        self.tableau[:m, ncol:total] = np.eye(m)
        self.tableau[:m, total] = b
        # Phase 1 reduced costs: minus the column sums under cost 1 on the
        # artificials.
        self.tableau[m, :ncol] = -a.sum(axis=0)
        self.tableau[m, total] = -b.sum()
        self.basis = list(range(ncol, total))
        self.a_ext = np.concatenate([a, np.eye(m), b[:, None]], axis=1)
        self._start: tuple[list[int], np.ndarray] | None = None

    def _factor(self) -> np.ndarray:
        """B^-1 [A | I | b] for the current basis, from the original data."""
        try:
            sol = np.linalg.solve(self.a_ext[:, self.basis], self.a_ext)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis during refresh") from exc
        np.maximum(sol[:, self.total], 0.0, out=sol[:, self.total])
        return sol

    def _refresh(self, cost_ext: np.ndarray, sol: np.ndarray) -> float:
        """Rebuild the tableau from ``sol`` = B^-1 [A | I | b] and the cost;
        return the min reduced cost."""
        m, total, tableau = self.m, self.total, self.tableau
        tableau[:m, :] = sol
        cb = cost_ext[self.basis]
        tableau[m, :total] = cost_ext - cb @ sol[:, :total]
        tableau[m, total] = -(cb @ sol[:, total])
        return float(tableau[m, : self.ncol].min())

    def _run(self) -> str:
        m, total, tableau, basis = self.m, self.total, self.tableau, self.basis
        bland = False
        stall = 0
        last_obj = tableau[m, total]
        for _ in range(200 * (m + self.ncol) + 5000):
            costs = tableau[m, : self.ncol]
            if bland:
                idx = np.nonzero(costs < -FEASIBILITY_ATOL)[0]
                if not len(idx):
                    return "optimal"
                enter = int(idx[0])
            else:
                enter = int(np.argmin(costs))
                if costs[enter] >= -FEASIBILITY_ATOL:
                    return "optimal"
            col = tableau[:m, enter]
            mask = col > FEASIBILITY_ATOL
            if not mask.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[mask] = tableau[:m, total][mask] / col[mask]
            best = ratios.min()
            ties = np.nonzero(ratios <= best + 1e-12)[0]
            if bland:
                # Bland's leaving rule: smallest basis index among ties.
                leave = int(ties[np.argmin([basis[i] for i in ties])])
            else:
                # Largest pivot element among ties, for stability and to
                # cross degenerate vertices in fewer steps than an index
                # rule would.
                leave = int(ties[np.argmax(col[ties])])
            pivot_update(tableau, leave, enter)
            basis[leave] = enter
            obj = tableau[m, total]
            # The objective cell is nondecreasing; no gain means a
            # degenerate pivot, and a long degenerate streak could cycle.
            # Bland's rule escapes any plateau in finitely many steps, and
            # strict progress makes revisiting a basis impossible, so
            # alternating the two rules still terminates.
            if obj - last_obj > 1e-12:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > 60:
                    bland = True
            last_obj = obj
        raise SolverError("simplex iteration limit exceeded")

    def _polish(self, cost_ext: np.ndarray) -> None:
        """Pivot to optimality, accepting only a refactorization-clean row."""
        for _ in range(30):
            status = self._run()
            if status != "optimal":
                raise SolverError(f"simplex phase ended {status}")
            if self._refresh(cost_ext, self._factor()) >= -FEASIBILITY_ATOL:
                return
        raise SolverError("optimality polish did not converge")

    def phase1(self) -> bool:
        """Find a feasible basis; False when A x = b, x >= 0 has none."""
        m, ncol, tableau, basis = self.m, self.ncol, self.tableau, self.basis
        self._polish(np.concatenate([np.zeros(ncol), np.ones(m)]))
        if -tableau[m, self.total] > 1e-7:
            return False
        # Drive leftover artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= ncol:
                row = tableau[i, :ncol]
                cands = np.nonzero(np.abs(row) > 1e-7)[0]
                if len(cands):
                    pivot_update(tableau, i, int(cands[0]))
                    basis[i] = int(cands[0])
        self._start = (list(basis), self._factor())
        return True

    def phase2(self, c: np.ndarray) -> np.ndarray:
        """An optimal x for min c.x, from the basis phase 1 left."""
        start_basis, sol = self._start
        self.basis[:] = start_basis
        cost2 = np.concatenate([c, np.zeros(self.m)])
        self._refresh(cost2, sol)
        self._polish(cost2)
        x = np.zeros(self.ncol)
        for i, j in enumerate(self.basis):
            if j < self.ncol:
                x[j] = self.tableau[i, self.total]
        return x


def _witness_ok(
    cset: ConstraintSet, probs: np.ndarray, endpoint: float
) -> bool:
    tol = FEASIBILITY_ATOL
    if probs.min() < -tol or abs(probs.sum() - 1.0) > tol:
        return False
    if abs(probs[0] - endpoint) > tol:
        return False
    buf = probs.copy()
    fwht_inplace(buf)
    for bits, (lo, hi) in cset.entries.items():
        if not lo - tol <= buf[bits] <= hi + tol:
            return False
    return True


def _solve_dense(cset: ConstraintSet) -> tuple[_Solved, _Solved]:
    """Both LPs on the dense simplex: one phase 1, then phase 2 for min p(0)
    and for max p(0); both infeasible when phase 1 is."""
    a, b, n_vars = _standard_form(*_lp_rows(cset))
    simplex = _Simplex(a, b)
    if not simplex.phase1():
        return ("infeasible", None), ("infeasible", None)
    out = []
    for sense in (+1.0, -1.0):
        c = np.zeros(a.shape[1])
        c[0] = sense
        out.append(("solved", simplex.phase2(c)[:n_vars]))
    return out[0], out[1]


def _witness(
    cset: ConstraintSet, x: np.ndarray, endpoint: float, backend: str
) -> SyndromeDistribution:
    """The endpoint witness: ``x`` with solver dust below zero clipped away.

    Clipping can push the sum past the tolerance; only then is the vector
    rescaled to sum 1 and validated again.
    """
    probs = np.clip(x, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > FEASIBILITY_ATOL:
        probs /= total
        if not _witness_ok(cset, probs, endpoint):
            raise SolverError(f"renormalized witness failed validation on {backend}")
    return SyndromeDistribution(cset.n, probs, atol=FEASIBILITY_ATOL)


def _endpoints(
    cset: ConstraintSet,
    solve: Callable[[ConstraintSet], tuple[_Solved, _Solved]],
    backend: str,
) -> EndpointResult:
    """Both endpoint LPs on one backend, with validated witnesses."""
    (status_lo, x_lo), (status_hi, x_hi) = solve(cset)
    if "infeasible" in (status_lo, status_hi):
        return EndpointResult(0.0, 0.0, None, None, "infeasible", backend)
    lower = float(x_lo[0])
    upper = float(x_hi[0])
    if not (_witness_ok(cset, x_lo, lower) and _witness_ok(cset, x_hi, upper)):
        raise SolverError(f"witness validation failed on {backend}")
    w_lo = _witness(cset, x_lo, lower, backend)
    w_hi = _witness(cset, x_hi, upper, backend)
    return EndpointResult(lower, upper, w_lo, w_hi, "solved", backend)


def _endpoints_highs(cset: ConstraintSet, model: HighsModel) -> EndpointResult:
    """Endpoints on the HiGHS models.  A warm pair that fails validation or
    reports infeasibility is solved once more cold before it is believed."""
    if model.warm:
        try:
            result = _endpoints(cset, model.solve, "highs")
            if result.status == "solved":
                return result
            _log.debug("warm HiGHS solve reported infeasible; retrying cold")
        except SolverError as err:
            _log.debug("warm HiGHS solve failed (%s); retrying cold", err)
        model.reset()
    return _endpoints(cset, model.solve, "highs")


def solve_endpoints(
    cset: ConstraintSet, *, engine: HighsModel | None = None
) -> EndpointResult:
    """Certified interval [min p(0), max p(0)] over the feasible polytope.

    Exact data at n <= 6 is solved on the dense simplex, anything else on
    HiGHS.  ``engine`` is the run's persistent HiGHS model, kept across
    calls whose constraint sets only grow or tighten; without one, HiGHS
    solves cold on a fresh model.  Raises ``SolverError`` when the backend
    fails to produce a validated solution.
    """
    exact = all(lo == hi for lo, hi in cset.entries.values())
    backend = "dense" if exact and cset.n <= _DENSE_MAX_N else "highs"
    if cset.has_empty_band():
        return EndpointResult(0.0, 0.0, None, None, "infeasible", backend)
    if backend == "dense":
        return _endpoints(cset, _solve_dense, backend)
    return _endpoints_highs(cset, engine if engine is not None else HighsModel(cset.n))
