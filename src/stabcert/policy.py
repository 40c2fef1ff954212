"""Gauge and label acquisition policies.

The witness-elimination rule scores each unqueried label by how much the two
endpoint witnesses disagree on its Walsh coefficient, then queries the
maximum-weight basis under those scores (a matroid greedy problem).  The
uniform policy ignores history; the mixed policy flips a coin between the
two; the fine-grained rule queries the single best label.

Every rule reads the run's queried labels as one boolean mask of length
2^n, indexed by label encoding; entry 0 (the zero label) is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stabcert.gf2 import Gauge, Label, greedy_max_weight_basis, sample_uniform_gauge
from stabcert.kernels import fwht_inplace
from stabcert.syndrome import SyndromeDistribution

__all__ = [
    "DisagreementSpectrum",
    "PolicyChoice",
    "disagreement_spectrum",
    "select_witness_gauge",
    "select_uniform_gauge",
    "select_mixed",
    "select_single_label",
]


@dataclass(frozen=True)
class DisagreementSpectrum:
    """Per-label witness disagreement d(u) >= 0; the zero label is excluded."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64).copy()
        if arr.shape != (1 << self.n,):
            raise ValueError(f"expected length {1 << self.n} array")
        arr[0] = 0.0
        if arr.min() < 0.0 or arr.max() > 2.0 + 1e-9:
            raise ValueError("disagreement scores must lie in [0, 2]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def value(self, u: int | Label) -> float:
        bits = u.bits if isinstance(u, Label) else u
        return float(self.values[bits])

    def total_unqueried(self, queried: np.ndarray) -> float:
        """D = sum of d(u) over unqueried nonzero labels.

        Summed one term at a time in ascending encoding, which fixes the
        rounding, so traces do not depend on numpy's pairwise summation.
        """
        return float(sum(self.values[1:][~queried[1:]].tolist()))

    def max_unqueried(self, queried: np.ndarray) -> float:
        """Delta = max of d(u) over unqueried nonzero labels (0 if none)."""
        vals = self.values[1:][~queried[1:]]
        return float(vals.max()) if vals.size else 0.0


def disagreement_spectrum(
    p_lo: SyndromeDistribution, p_hi: SyndromeDistribution
) -> DisagreementSpectrum:
    """d(u) = |walsh(p_hi)(u) - walsh(p_lo)(u)| via one transform of the difference."""
    if p_lo.n != p_hi.n:
        raise ValueError("dimension mismatch")
    buf = p_hi.probs - p_lo.probs
    fwht_inplace(buf)
    np.abs(buf, out=buf)
    return DisagreementSpectrum(p_lo.n, buf)


def select_witness_gauge(
    d: DisagreementSpectrum, queried: np.ndarray
) -> Gauge | None:
    """Maximum-disagreement gauge; None signals full coverage (terminal).

    Solves the max-weight basis problem with unqueried-first tie-breaking,
    so the result always contains an unqueried label while any remain, and
    its score dominates the best single unqueried label.  Columns are
    ordered by ascending encoding.

    Queried labels get weight zero before the greedy scan: re-measuring
    yields no new constraint, and with band constraints the witnesses may
    still disagree slightly on queried labels, which must not crowd out
    unqueried ones.  With exact constraints this is a no-op.
    """
    n = d.n
    if queried[1:].all():
        return None
    weights = np.where(queried, 0.0, d.values)
    basis = greedy_max_weight_basis(n, weights, queried)
    cols = tuple(sorted(basis, key=lambda lab: lab.bits))
    return Gauge(n, cols)


def select_uniform_gauge(n: int, rng: np.random.Generator) -> Gauge:
    """History-independent uniform gauge."""
    return sample_uniform_gauge(n, rng)


def select_mixed(
    gamma: float,
    d: DisagreementSpectrum,
    queried: np.ndarray,
    rng: np.random.Generator,
) -> Gauge | None:
    """Uniform gauge with probability gamma, else the witness gauge.

    Exactly one Bernoulli value is drawn before any gauge sampling, so traces
    are reproducible regardless of which branch is taken.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0,1], got {gamma!r}")
    take_uniform = rng.random() < gamma
    if take_uniform:
        return select_uniform_gauge(d.n, rng)
    return select_witness_gauge(d, queried)


def select_single_label(
    d: DisagreementSpectrum, queried: np.ndarray
) -> Label | None:
    """Unqueried label with the largest disagreement; None at full coverage.

    Ties (including the all-zero spectrum) break by ascending encoding.
    """
    free = np.flatnonzero(~queried[1:]) + 1
    if free.size == 0:
        return None
    return Label(d.n, int(free[np.argmax(d.values[free])]))


@dataclass(frozen=True)
class PolicyChoice:
    """A parsed acquisition policy: witness, uniform, mixed(gamma), or fine."""

    kind: str
    gamma: float = 0.0

    _KINDS = ("witness", "uniform", "mixed", "fine")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0,1], got {self.gamma!r}")

    @classmethod
    def parse(cls, text: str) -> "PolicyChoice":
        text = text.strip()
        if text.startswith("mixed:"):
            return cls("mixed", float(text.split(":", 1)[1]))
        if text == "mixed":
            raise ValueError("mixed policy needs a gamma, e.g. 'mixed:0.25'")
        return cls(text)

    def __str__(self) -> str:
        if self.kind == "mixed":
            return f"mixed:{self.gamma:g}"
        return self.kind

    def select_gauge(
        self,
        d: DisagreementSpectrum,
        queried: np.ndarray,
        rng: np.random.Generator,
    ) -> Gauge | None:
        if self.kind == "witness":
            return select_witness_gauge(d, queried)
        if self.kind == "uniform":
            return select_uniform_gauge(d.n, rng)
        if self.kind == "mixed":
            return select_mixed(self.gamma, d, queried, rng)
        raise ValueError(f"policy {self.kind!r} does not select gauges")
