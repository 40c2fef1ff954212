"""Feasible polytopes of syndrome distributions and the endpoint LPs.

The feasible set after some Walsh coefficients have been measured is the set
of probability vectors over F_2^n whose transform matches each measured value
exactly (equality constraint) or up to a confidence radius (band constraint).
Minimizing and maximizing the zero-syndrome probability over this polytope
gives a certified two-sided fidelity interval together with the endpoint
witness distributions that attain it.

Two interchangeable solver backends are provided behind ``solve_endpoints``:
a built-in dense two-phase simplex (exact pivoting plus a final basis
refresh; its hot loop lives in :mod:`stabcert.kernels`) and an adapter to
scipy's HiGHS.  ``auto`` picks the dense solver for small systems and HiGHS
for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from stabcert.gf2 import Label
from stabcert.kernels import fwht_inplace, pivot_update
from stabcert.syndrome import SyndromeDistribution, character_signs, walsh

__all__ = [
    "ConstraintSet",
    "EndpointResult",
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
        new = dict(self.entries)
        if bits in new:
            old_lo, old_hi = new[bits]
            lo, hi = max(old_lo, lo), min(old_hi, hi)
        new[bits] = (lo, hi)
        return ConstraintSet(self.n, new)

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


def _solve_one_highs(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    a_band: np.ndarray,
    band_bounds: np.ndarray,
    var_bounds: Sequence[tuple[float, float]],
) -> tuple[str, np.ndarray | None]:
    if len(a_band):
        a_ub = np.vstack([a_band, -a_band])
        b_ub = np.concatenate([band_bounds[:, 1], -band_bounds[:, 0]])
    else:
        a_ub, b_ub = None, None
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=var_bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        raise SolverError(f"HiGHS failed with status {res.status}: {res.message}")
    return "solved", np.asarray(res.x)


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


def _solve_sense(
    cset: ConstraintSet, sense: int, backend: str
) -> tuple[str, np.ndarray | None]:
    """One LP: sense=+1 minimizes p(0), sense=-1 maximizes it."""
    a_eq, b_eq, a_band, band_bounds = _lp_rows(cset)
    size = 1 << cset.n
    c = np.zeros(size)
    c[0] = float(sense)
    if backend == "highs":
        status, x = _solve_one_highs(
            c, a_eq, b_eq, a_band, band_bounds, [(0.0, 1.0)] * size
        )
    elif backend == "dense":
        a, b, n_vars = _standard_form(a_eq, b_eq, a_band, band_bounds)
        c_std = np.zeros(a.shape[1])
        c_std[:n_vars] = c
        status, x = _simplex_standard(c_std, a, b)
        if x is not None:
            x = x[:size]
    else:
        raise ValueError(f"unknown solver backend {backend!r}")
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


def solve_endpoints(
    cset: ConstraintSet,
    *,
    solver: str | None = None,
    want_witnesses: bool = True,
) -> EndpointResult:
    """Certified interval [min p(0), max p(0)] over the feasible polytope.

    ``solver`` is "dense", "highs", or "auto" (default, size-based).
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
            status_lo, x_lo = _solve_sense(cset, +1, attempt)
            if status_lo == "infeasible":
                return EndpointResult(0.0, 0.0, None, None, "infeasible", attempt)
            status_hi, x_hi = _solve_sense(cset, -1, attempt)
            if status_hi == "infeasible":
                return EndpointResult(0.0, 0.0, None, None, "infeasible", attempt)
            lower = float(x_lo[0])
            upper = float(x_hi[0])
            if not (
                _witness_ok(cset, x_lo, lower) and _witness_ok(cset, x_hi, upper)
            ):
                raise SolverError(f"witness validation failed on {attempt}")
            if not want_witnesses:
                return EndpointResult(lower, upper, None, None, "solved", attempt)
            w_lo = _witness(cset, x_lo, lower, attempt)
            w_hi = _witness(cset, x_hi, upper, attempt)
            return EndpointResult(lower, upper, w_lo, w_hi, "solved", attempt)
        except SolverError as err:
            last_err = err
            continue
    raise SolverError(f"all backends failed: {last_err}")
