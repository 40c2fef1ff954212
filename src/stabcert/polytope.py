"""Feasible polytopes of syndrome distributions and the endpoint LPs.

The feasible set after some Walsh coefficients have been measured is the set
of probability vectors over F_2^n whose transform matches each measured value
exactly (equality constraint) or up to a confidence radius (band constraint).
Minimizing and maximizing the zero-syndrome probability over this polytope
gives a certified two-sided fidelity interval together with the endpoint
witness distributions that attain it.

Two interchangeable solver backends are provided behind ``solve_endpoints``:
a built-in dense two-phase simplex (exact pivoting plus a final basis
refresh; its hot loop lives in :mod:`stabcert.kernels`) and a persistent
warm-started HiGHS model per run (:class:`HighsModel`).  A run keeps one
model, adds each new label to it as one row and re-solves both endpoints
from their previous optimal bases; a call without a model builds a fresh
one and solves cold.  ``auto`` picks the dense solver for small systems and
HiGHS for large ones.
"""

from __future__ import annotations

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
    "DEFAULT_SOLVER",
]

# Required accuracy for endpoints and witness feasibility.
FEASIBILITY_ATOL = 1e-9

# auto backend: dense tableau below this many tableau cells, HiGHS above.
_AUTO_DENSE_CELLS = 50_000

DEFAULT_SOLVER = "auto"


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
    """Equality rows (A_eq, b_eq) and band rows (A_band, [lo, hi] bounds)."""
    size = 1 << cset.n
    eq_rows = [np.ones(size)]
    eq_vals = [1.0]
    band_rows = []
    band_bounds = []
    for bits in sorted(cset.entries):
        lo, hi = cset.entries[bits]
        row = character_signs(cset.n, bits)
        if lo == hi:
            eq_rows.append(row)
            eq_vals.append(lo)
        else:
            band_rows.append(row)
            band_bounds.append((lo, hi))
    a_eq = np.array(eq_rows)
    b_eq = np.array(eq_vals)
    if band_rows:
        a_band = np.array(band_rows)
        bounds = np.array(band_bounds)
    else:
        a_band = np.zeros((0, size))
        bounds = np.zeros((0, 2))
    return a_eq, b_eq, a_band, bounds


class HighsModel:
    """One persistent HiGHS model for the endpoint LPs of a run.

    Columns are the 2^n probabilities, bounded to [0, 1]; row 0 is the
    normalization.  Each label becomes one row, added once: an equality row
    for an exact value, a ranged row lo <= a.x <= hi for a band, whose
    bounds are changed in place when a repeat tightens it.  Both senses
    share the model: before a solve the cost is set for that sense and its
    last optimal basis is restored, with the rows added since then entering
    as basic, so the dual simplex restarts from a dual-feasible basis.  A
    sense without a saved basis is solved cold.

    This class is the only user of scipy's private ``_highspy`` binding.
    """

    def __init__(self, n: int):
        self.n = n
        self._cols = np.arange(1 << n, dtype=np.int32)
        self._highs = None  # built on first use
        self._rows: dict[int, tuple[int, float, float]] = {}  # bits -> row, lo, hi
        self._bases: dict[int, tuple[list, list]] = {}  # sense -> col, row status

    @property
    def warm(self) -> bool:
        """True when the next solve restarts from a saved basis."""
        return bool(self._bases)

    def reset(self) -> None:
        """Drop the solver state and the saved bases; the next solve is cold."""
        if self._highs is not None:
            self._highs.clearSolver()
        self._bases.clear()

    def _build(self) -> None:
        h = _highs._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("primal_feasibility_tolerance", 1e-10)
        h.setOptionValue("dual_feasibility_tolerance", 1e-10)
        size = 1 << self.n
        h.addVars(size, np.zeros(size), np.ones(size))
        h.addRow(1.0, 1.0, size, self._cols, np.ones(size))
        self._highs = h
        self._rows = {}
        self._bases = {}

    def _sync(self, cset: ConstraintSet) -> None:
        """Add the rows of new labels and tighten changed bounds."""
        if cset.n != self.n:
            raise ValueError(f"model is for n={self.n}, constraints for n={cset.n}")
        if self._highs is None or not self._rows.keys() <= cset.entries.keys():
            self._build()
        h = self._highs
        size = 1 << self.n
        for bits in sorted(cset.entries):
            lo, hi = cset.entries[bits]
            known = self._rows.get(bits)
            if known is None:
                h.addRow(lo, hi, size, self._cols, character_signs(self.n, bits))
                self._rows[bits] = (h.getNumRow() - 1, lo, hi)
            elif known[1:] != (lo, hi):
                h.changeRowBounds(known[0], lo, hi)
                self._rows[bits] = (known[0], lo, hi)

    def solve(self, cset: ConstraintSet, sense: int) -> tuple[str, np.ndarray | None]:
        """One LP: sense=+1 minimizes p(0), sense=-1 maximizes it."""
        self._sync(cset)
        h = self._highs
        h.changeColCost(0, float(sense))
        saved = self._bases.get(sense)
        if saved is None:
            h.clearSolver()
        else:
            basis = _highs.HighsBasis()
            basis.col_status = saved[0]
            pad = h.getNumRow() - len(saved[1])
            basis.row_status = saved[1] + [_highs.HighsBasisStatus.kBasic] * pad
            basis.valid = True
            basis.alien = False
            if h.setBasis(basis) != _highs.HighsStatus.kOk:
                raise SolverError("HiGHS rejected the saved basis")
        run_status = h.run()
        status = h.getModelStatus()
        if status in (
            _highs.HighsModelStatus.kInfeasible,
            _highs.HighsModelStatus.kUnboundedOrInfeasible,
        ):
            self._bases.pop(sense, None)
            return "infeasible", None
        if (
            run_status == _highs.HighsStatus.kError
            or status != _highs.HighsModelStatus.kOptimal
        ):
            self._bases.pop(sense, None)
            raise SolverError(f"HiGHS ended with {h.modelStatusToString(status)}")
        basis = h.getBasis()
        self._bases[sense] = (basis.col_status, basis.row_status)
        return "solved", np.array(h.getSolution().col_value)


def _standard_form(
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    a_band: np.ndarray,
    band_bounds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Assemble [A | slacks] x = b with x >= 0; returns (A, b, n_vars)."""
    n_vars = a_eq.shape[1]
    n_band = len(a_band)
    rows = []
    vals = []
    for i in range(a_eq.shape[0]):
        rows.append((a_eq[i], None, 0.0))
        vals.append(b_eq[i])
    for j in range(n_band):
        rows.append((a_band[j], 2 * j, 1.0))  # row + s = hi
        vals.append(band_bounds[j, 1])
        rows.append((a_band[j], 2 * j + 1, -1.0))  # row - s = lo
        vals.append(band_bounds[j, 0])
    m = len(rows)
    a = np.zeros((m, n_vars + 2 * n_band))
    b = np.asarray(vals, dtype=np.float64)
    for i, (row, slack, coef) in enumerate(rows):
        a[i, :n_vars] = row
        if slack is not None:
            a[i, n_vars + slack] = coef
    return a, b, n_vars


def _simplex_standard(
    c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[str, np.ndarray | None]:
    """Two-phase dense tableau simplex for min c.x, A x = b, x >= 0.

    Dantzig pricing with a switch to Bland's rule after a stall. Whenever a
    phase claims optimality the tableau is rebuilt exactly from the original
    data for the current basis (refactorization); pivoting resumes if the
    clean reduced costs expose remaining progress. Degenerate instances can
    take hundreds of pivots, and without the rebuild the accumulated drift
    in the cost row can stop a phase early.
    """
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    m, ncol = a.shape
    total = ncol + m

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :ncol] = a
    tableau[:m, ncol:total] = np.eye(m)
    tableau[:m, total] = b
    basis = list(range(ncol, total))
    a_ext = np.concatenate([a, np.eye(m), b[:, None]], axis=1)

    def refresh(cost_ext: np.ndarray) -> float:
        """Rebuild the tableau from the original data; return min reduced cost."""
        bmat = a_ext[:, basis]
        try:
            sol = np.linalg.solve(bmat, a_ext)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis during refresh") from exc
        np.maximum(sol[:, total], 0.0, out=sol[:, total])
        tableau[:m, :] = sol
        cb = cost_ext[basis]
        tableau[m, :total] = cost_ext - cb @ sol[:, :total]
        tableau[m, total] = -(cb @ sol[:, total])
        return float(tableau[m, :ncol].min())

    def run(allowed_max: int) -> str:
        bland = False
        stall = 0
        last_obj = tableau[m, total]
        for _ in range(200 * (m + ncol) + 5000):
            costs = tableau[m, :allowed_max]
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

    def polish(cost_ext: np.ndarray) -> None:
        """Pivot to optimality, accepting only a refactorization-clean row."""
        for _ in range(30):
            status = run(ncol)
            if status != "optimal":
                raise SolverError(f"simplex phase ended {status}")
            if refresh(cost_ext) >= -FEASIBILITY_ATOL:
                return
        raise SolverError("optimality polish did not converge")

    # Phase 1: minimize the artificial mass.
    cost1 = np.concatenate([np.zeros(ncol), np.ones(m)])
    tableau[m, :ncol] = -a.sum(axis=0)
    tableau[m, total] = -b.sum()
    polish(cost1)
    if -tableau[m, total] > 1e-7:
        return "infeasible", None

    # Drive leftover artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= ncol:
            row = tableau[i, :ncol]
            cands = np.nonzero(np.abs(row) > 1e-7)[0]
            if len(cands):
                pivot_update(tableau, i, int(cands[0]))
                basis[i] = int(cands[0])

    # Phase 2 with the real objective.
    cost2 = np.concatenate([c, np.zeros(m)])
    refresh(cost2)
    polish(cost2)

    x = np.zeros(ncol)
    for i, j in enumerate(basis):
        if j < ncol:
            x[j] = tableau[i, total]
    return "solved", x


def _auto_backend(cset: ConstraintSet) -> str:
    size = 1 << cset.n
    rows = 1 + len(cset)
    return "dense" if size * rows <= _AUTO_DENSE_CELLS else "highs"


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


def _solve_dense(cset: ConstraintSet, sense: int) -> tuple[str, np.ndarray | None]:
    """One LP on the dense simplex: sense=+1 minimizes p(0), -1 maximizes it."""
    a_eq, b_eq, a_band, band_bounds = _lp_rows(cset)
    a, b, n_vars = _standard_form(a_eq, b_eq, a_band, band_bounds)
    c_std = np.zeros(a.shape[1])
    c_std[0] = float(sense)
    status, x = _simplex_standard(c_std, a, b)
    if x is not None:
        x = x[: 1 << cset.n]
    return status, x


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
    solve_sense: Callable[[ConstraintSet, int], tuple[str, np.ndarray | None]],
    backend: str,
    want_witnesses: bool,
) -> EndpointResult:
    """Both endpoint LPs on one backend, with validated witnesses."""
    status_lo, x_lo = solve_sense(cset, +1)
    if status_lo == "infeasible":
        return EndpointResult(0.0, 0.0, None, None, "infeasible", backend)
    status_hi, x_hi = solve_sense(cset, -1)
    if status_hi == "infeasible":
        return EndpointResult(0.0, 0.0, None, None, "infeasible", backend)
    lower = float(x_lo[0])
    upper = float(x_hi[0])
    if not (_witness_ok(cset, x_lo, lower) and _witness_ok(cset, x_hi, upper)):
        raise SolverError(f"witness validation failed on {backend}")
    if not want_witnesses:
        return EndpointResult(lower, upper, None, None, "solved", backend)
    w_lo = _witness(cset, x_lo, lower, backend)
    w_hi = _witness(cset, x_hi, upper, backend)
    return EndpointResult(lower, upper, w_lo, w_hi, "solved", backend)


def _endpoints_highs(
    cset: ConstraintSet, model: HighsModel, want_witnesses: bool
) -> EndpointResult:
    """Endpoints on the HiGHS model.  A warm solve that fails validation or
    reports infeasibility is repeated once cold before it is believed."""
    if model.warm:
        try:
            result = _endpoints(cset, model.solve, "highs", want_witnesses)
            if result.status == "solved":
                return result
        except SolverError:
            pass
        model.reset()
    return _endpoints(cset, model.solve, "highs", want_witnesses)


def solve_endpoints(
    cset: ConstraintSet,
    *,
    solver: str | None = None,
    want_witnesses: bool = True,
    engine: HighsModel | None = None,
) -> EndpointResult:
    """Certified interval [min p(0), max p(0)] over the feasible polytope.

    ``solver`` is "dense", "highs", or "auto" (default, size-based).
    ``engine`` is the run's persistent HiGHS model, kept across calls whose
    constraint sets only grow or tighten; without one, HiGHS solves cold on
    a fresh model.  If the chosen backend fails, the other one is tried.
    """
    backend = solver or DEFAULT_SOLVER
    if backend == "auto":
        backend = _auto_backend(cset)
    if backend not in ("dense", "highs"):
        raise ValueError(f"unknown solver backend {backend!r}")
    if cset.has_empty_band():
        return EndpointResult(0.0, 0.0, None, None, "infeasible", backend)

    chain = [backend] + [alt for alt in ("dense", "highs") if alt != backend]
    last_err: Exception | None = None
    for attempt in chain:
        try:
            if attempt == "dense":
                return _endpoints(cset, _solve_dense, attempt, want_witnesses)
            model = engine if engine is not None else HighsModel(cset.n)
            return _endpoints_highs(cset, model, want_witnesses)
        except SolverError as err:
            last_err = err
            continue
    raise SolverError(f"all backends failed: {last_err}")
