"""Finite-shot measurement simulation and Hoeffding confidence radii.

Each newly queried label is estimated from N_s independent +-1 outcomes; the
band half-width eta applies a union bound over the at most n*T_max labels a
run can query, so all bands contain their true coefficients simultaneously
with probability at least 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ShotModel", "measure_label", "hoeffding_radius"]


def measure_label(mu_true: float, n_shots: int, rng: np.random.Generator) -> float:
    """Empirical mean of n_shots +-1 outcomes with mean ``mu_true``."""
    if abs(mu_true) > 1.0 + 1e-9:
        raise ValueError(f"mu_true {mu_true!r} outside [-1, 1]")
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots!r}")
    p_plus = min(1.0, max(0.0, (1.0 + mu_true) / 2.0))
    k = int(rng.binomial(n_shots, p_plus))
    return 2.0 * k / n_shots - 1.0


def hoeffding_radius(n_shots: int, n: int, t_max: int, delta: float) -> float:
    """Band half-width sqrt(2 ln(2 n T_max / delta) / N_s)."""
    if n_shots < 1 or n < 1 or t_max < 1:
        raise ValueError("n_shots, n, and t_max must all be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta!r}")
    return math.sqrt(2.0 * math.log(2.0 * n * t_max / delta) / n_shots)


@dataclass(frozen=True)
class ShotModel:
    """Exact oracle access or finite sampling with a shared union bound."""

    mode: str = "exact"
    n_shots: int = 1
    delta: float = 0.05
    t_max: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "finite"):
            raise ValueError(f"mode must be 'exact' or 'finite', got {self.mode!r}")
        if self.mode == "finite":
            if self.n_shots < 1:
                raise ValueError(f"n_shots must be >= 1, got {self.n_shots!r}")
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must be in (0,1), got {self.delta!r}")
            if self.t_max < 1:
                raise ValueError(f"t_max must be >= 1, got {self.t_max!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    def eta(self, n: int) -> float:
        """Confidence radius for this model at qubit count n (0 when exact)."""
        if self.exact:
            return 0.0
        return hoeffding_radius(self.n_shots, n, self.t_max, self.delta)

    @classmethod
    def parse(cls, text: str) -> "ShotModel":
        """Parse "exact" or "finite:Ns=10000,delta=0.05,Tmax=8"."""
        text = text.strip()
        if text == "exact":
            return cls()
        if not text.startswith("finite:"):
            raise ValueError(f"bad shot model {text!r}")
        fields = {}
        for part in text[len("finite:"):].split(","):
            if "=" not in part:
                raise ValueError(f"bad shot model field {part!r}")
            key, val = part.split("=", 1)
            fields[key.strip()] = val.strip()
        extra = set(fields) - {"Ns", "delta", "Tmax"}
        if extra or set(fields) != {"Ns", "delta", "Tmax"}:
            raise ValueError(
                f"shot model needs exactly Ns, delta, Tmax; got {sorted(fields)}"
            )
        n_shots = float(fields["Ns"])  # accepts 1e4
        if not (math.isfinite(n_shots) and n_shots.is_integer()):
            raise ValueError(f"Ns must be a finite whole number, got {fields['Ns']!r}")
        return cls(
            "finite",
            n_shots=int(n_shots),
            delta=float(fields["delta"]),
            t_max=int(fields["Tmax"]),
        )

    def __str__(self) -> str:
        if self.exact:
            return "exact"
        return f"finite:Ns={self.n_shots},delta={self.delta:g},Tmax={self.t_max}"
