"""The adaptive certification loop, per-round invariant checks, and ensembles.

``run_adaptive`` is the one loop for every policy: each round queries one
unit (a gauge's n labels, or a single label), adds its Walsh constraints,
solves the two endpoint LPs, stops when the certified width reaches the
target, and otherwise picks the next unit from the endpoint witnesses.
Gauge policies (witness, uniform, mixed) query the initial gauge in round 1
and one gauge per round after it.  The ``fine`` policy queries the initial
gauge in round 0 and one label per round after it, so its round cap counts
labels.  ``run_ensemble`` runs paired Monte-Carlo trials over several
policy/shot-model arms and aggregates the per-round and stopping statistics
used by the benchmark campaigns.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from stabcert.gf2 import Gauge, Label, in_span, rank
from stabcert.policy import (
    DisagreementSpectrum,
    PolicyChoice,
    disagreement_spectrum,
    select_single_label,
)
from stabcert.polytope import (
    ConstraintSet,
    HighsModel,
    add_band,
    solve_endpoints,
)
from stabcert.shots import ShotModel, measure_label
from stabcert.syndrome import (
    AffineSupportSpec,
    SyndromeDistribution,
    WalshSpectrum,
    make_affine_support,
    make_rho_ex,
    make_sparse_error_state,
    sample_dirichlet_uniform,
    sample_subspace_basis,
    walsh,
)

__all__ = [
    "InstanceSpec",
    "RunConfig",
    "RoundRecord",
    "RunTrace",
    "ArmSpec",
    "EnsembleConfig",
    "EnsembleResult",
    "InvariantViolation",
    "run_adaptive",
    "run_fine_grained",
    "run_ensemble",
]

_WIDTH_SLACK = 1e-9
_BOUND_SLACK = 1e-7


class InvariantViolation(RuntimeError):
    """A certified-interval invariant failed during a run."""


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    """Reject keys a config object does not define, so typos do not fall
    back to defaults."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


@dataclass(frozen=True)
class InstanceSpec:
    """How to build the unknown state's syndrome distribution for a run.

    kinds: "rho_ex" (the fixed n=3 worked example), "affine" (uniform on a
    random r-dimensional coset; ``s0`` is "zero", "in_support",
    "outside_support", or an explicit label token), "dirichlet" (uniform on
    the simplex), "sparse" (fixed fidelity, k random error syndromes), and
    "explicit" (a literal probability vector).
    """

    kind: str
    r: int | None = None
    s0: str = "zero"
    fidelity: float | None = None
    k_errors: int | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        kinds = ("rho_ex", "affine", "dirichlet", "sparse", "explicit")
        if self.kind not in kinds:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.kind == "affine" and self.r is None:
            raise ValueError("affine instance needs r")
        if self.kind == "sparse" and (self.fidelity is None or self.k_errors is None):
            raise ValueError("sparse instance needs fidelity and k_errors")
        if self.kind == "explicit" and self.probs is None:
            raise ValueError("explicit instance needs probs")

    def realize(
        self, n: int, rng: np.random.Generator
    ) -> tuple[SyndromeDistribution, dict]:
        """Build the distribution; meta carries structure for instrumentation."""
        if self.kind == "rho_ex":
            if n != 3:
                raise ValueError("rho_ex is a fixed n=3 instance")
            return make_rho_ex(), {}
        if self.kind == "dirichlet":
            return sample_dirichlet_uniform(n, rng), {}
        if self.kind == "sparse":
            return (
                make_sparse_error_state(n, self.fidelity, self.k_errors, rng),
                {},
            )
        if self.kind == "explicit":
            return SyndromeDistribution(n, np.asarray(self.probs)), {}
        v_basis = sample_subspace_basis(n, self.r, rng)
        v_bits = [v.bits for v in v_basis]
        if self.s0 == "zero":
            s0 = Label(n, 0)
        elif self.s0 == "in_support":
            picks = int(rng.integers(0, 1 << self.r)) if self.r else 0
            bits = 0
            for i in range(self.r):
                if (picks >> i) & 1:
                    bits ^= v_bits[i]
            s0 = Label(n, bits)
        elif self.s0 == "outside_support":
            if self.r >= n:
                raise ValueError("no point lies outside a full-dimensional subspace")
            while True:
                cand = int(rng.integers(0, 1 << n))
                if not in_span(cand, v_bits):
                    s0 = Label(n, cand)
                    break
        else:
            s0 = Label.from_token(self.s0, n)
        spec = AffineSupportSpec(n, s0, v_basis)
        return make_affine_support(spec), {"v_basis": v_basis, "s0": s0}

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.r is not None:
            out["r"] = self.r
        if self.kind == "affine":
            out["s0"] = self.s0
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.k_errors is not None:
            out["k_errors"] = self.k_errors
        if self.probs is not None:
            out["probs"] = list(self.probs)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "InstanceSpec":
        _check_keys(data, _INSTANCE_KEYS, "instance")
        return cls(
            kind=data["kind"],
            r=data.get("r"),
            s0=data.get("s0", "zero"),
            fidelity=data.get("fidelity"),
            k_errors=data.get("k_errors"),
            probs=tuple(data["probs"]) if "probs" in data else None,
        )


_INSTANCE_KEYS = {f.name for f in fields(InstanceSpec)}


@dataclass(frozen=True)
class RunConfig:
    """Everything one adaptive run needs; fully determines the trace."""

    n: int
    instance: InstanceSpec
    policy: PolicyChoice
    epsilon: float = 0.0
    t_max: int = 10
    shots: ShotModel = ShotModel()
    initial_gauge: str | tuple[str, ...] = "identity"
    seed: int = 0
    assertions: str = "strict"  # strict | record | off

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max!r}")
        if self.assertions not in ("strict", "record", "off"):
            raise ValueError(f"unknown assertion level {self.assertions!r}")
        if not self.shots.exact:
            # The Hoeffding radius is a union bound over n * Tmax labels; a
            # run that can query more voids the 1 - delta coverage claim.
            if self.policy.kind == "fine":
                most = self.n + self.t_max
            else:
                most = self.n * self.t_max
            if self.n * self.shots.t_max < most:
                raise ValueError(
                    f"shot model Tmax={self.shots.t_max} covers "
                    f"{self.n * self.shots.t_max} labels, but a run with "
                    f"t_max={self.t_max} can query {most}"
                )

    def to_json_dict(self) -> dict:
        gauge = self.initial_gauge
        return {
            "n": self.n,
            "instance": self.instance.to_json_dict(),
            "policy": str(self.policy),
            "epsilon": self.epsilon,
            "t_max": self.t_max,
            "shots": str(self.shots),
            "initial_gauge": gauge if isinstance(gauge, str) else list(gauge),
            "seed": self.seed,
            "assertions": self.assertions,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        """Inverse of ``to_json_dict``; also accepts the config files'
        ``"version"`` key.  Unknown keys raise ``ValueError``."""
        _check_keys(data, _RUN_KEYS, "config")
        gauge = data.get("initial_gauge", "identity")
        return cls(
            n=int(data["n"]),
            instance=InstanceSpec.from_json_dict(data["instance"]),
            policy=PolicyChoice.parse(data["policy"]),
            epsilon=float(data.get("epsilon", 0.0)),
            t_max=int(data.get("t_max", 10)),
            shots=ShotModel.parse(data.get("shots", "exact")),
            initial_gauge=gauge if isinstance(gauge, str) else tuple(gauge),
            seed=int(data.get("seed", 0)),
            assertions=data.get("assertions", "strict"),
        )


_RUN_KEYS = {"version"} | {f.name for f in fields(RunConfig)}


@dataclass
class RoundRecord:
    """One adaptive round: what was queried and the resulting certificate."""

    t: int
    kind: str  # "gauge" | "label"
    queried: list[str]
    new_labels: list[str]
    measured: dict[str, float]
    lower: float
    upper: float
    width: float
    m_unqueried: int
    d_total: float
    d_max: float
    shots_spent: int
    status: str
    violations: list[str] = field(default_factory=list)
    wall_ms: float = 0.0


@dataclass
class RunTrace:
    """Full record of one adaptive run."""

    config: RunConfig
    true_fidelity: float
    rounds: list[RoundRecord]
    stop_reason: str  # width | coverage | cap | infeasible
    t_eps: int | None
    eta: float
    total_shots: int
    instance_meta: dict

    @property
    def final_lower(self) -> float:
        return self.rounds[-1].lower

    @property
    def final_upper(self) -> float:
        return self.rounds[-1].upper

    @property
    def final_width(self) -> float:
        return self.rounds[-1].width

    @property
    def failed(self) -> bool:
        """Per the stopping-statistics convention: width above target at the end."""
        return not (self.final_width <= self.config.epsilon + _WIDTH_SLACK)

    def contains_truth(self) -> bool:
        return (
            self.final_lower - 1e-9 <= self.true_fidelity <= self.final_upper + 1e-9
        )

    def violation_count(self) -> int:
        return sum(len(r.violations) for r in self.rounds)

    def to_json_dict(self, include_timings: bool = False) -> dict:
        rounds = []
        for r in self.rounds:
            row = {
                "t": r.t,
                "kind": r.kind,
                "queried": r.queried,
                "new_labels": r.new_labels,
                "measured": r.measured,
                "L": r.lower,
                "U": r.upper,
                "W": r.width,
                "m_unqueried": r.m_unqueried,
                "D": r.d_total,
                "Delta": r.d_max,
                "shots_spent": r.shots_spent,
                "status": r.status,
                "violations": r.violations,
            }
            if include_timings:
                row["wall_ms"] = r.wall_ms
            rounds.append(row)
        return {
            "config": self.config.to_json_dict(),
            "true_fidelity": self.true_fidelity,
            "instance_meta": self.instance_meta,
            "eta": self.eta,
            "rounds": rounds,
            "stop_reason": self.stop_reason,
            "t_eps": self.t_eps,
            "total_shots": self.total_shots,
            "final": {
                "L": self.final_lower,
                "U": self.final_upper,
                "W": self.final_width,
            },
        }


def _resolve_initial_gauge(cfg: RunConfig, rng: np.random.Generator) -> Gauge:
    if cfg.initial_gauge == "identity":
        return Gauge.identity(cfg.n)
    if cfg.initial_gauge == "uniform":
        from stabcert.gf2 import sample_uniform_gauge

        return sample_uniform_gauge(cfg.n, rng)
    if isinstance(cfg.initial_gauge, str):
        raise ValueError(f"unknown initial gauge {cfg.initial_gauge!r}")
    return Gauge.from_tokens(cfg.initial_gauge, cfg.n)


class _AffineMonitor:
    """Checks that structural coverage of an affine instance forces termination."""

    def __init__(self, n: int, v_basis: Sequence[Label], s0: Label):
        self.n = n
        self.v_bits = [v.bits for v in v_basis]
        self.r = len(self.v_bits)
        self.perp_dim = n - self.r
        self.s0_in_v = in_span(s0.bits, self.v_bits)

    def _coset_key(self, bits: int) -> tuple[int, ...]:
        return tuple((bits & v).bit_count() & 1 for v in self.v_bits)

    def structurally_done(self, queried_bits: Iterable[int]) -> bool:
        perp_members = [
            b for b in queried_bits if all(x == 0 for x in self._coset_key(b))
        ]
        if rank(perp_members) < self.perp_dim:
            return False
        if not self.s0_in_v:
            return True
        keys = {self._coset_key(b) for b in queried_bits}
        keys.discard((0,) * self.r)
        return len(keys) >= (1 << self.r) - 1


class _LoopState:
    """Bookkeeping of one adaptive run.

    The queried labels are the keys of ``cset.entries``; ``queried`` holds
    the same set as a boolean mask over all 2^n encodings for the policies.
    """

    def __init__(self, cfg: RunConfig, p_true: SyndromeDistribution, meta: dict):
        self.cfg = cfg
        self.n = cfg.n
        self.spectrum: WalshSpectrum = walsh(p_true)
        self.cset = ConstraintSet.empty(cfg.n)
        # The run's HiGHS model; it builds nothing until HiGHS is first used.
        self.engine = HighsModel(cfg.n)
        self.queried = np.zeros(1 << cfg.n, dtype=bool)
        self.eta = cfg.shots.eta(cfg.n)
        self.total_shots = 0
        self.prev_lower = 0.0
        self.prev_upper = 1.0
        self.monitor: _AffineMonitor | None = None
        if meta.get("v_basis") is not None and cfg.shots.exact:
            self.monitor = _AffineMonitor(cfg.n, meta["v_basis"], meta["s0"])

    def absorb(self, labels: Sequence[int], rng: np.random.Generator) -> tuple[list[str], dict[str, float]]:
        """Measure (or read off) the new labels among ``labels``, in order."""
        new_tokens: list[str] = []
        measured: dict[str, float] = {}
        for bits in labels:
            if self.queried[bits]:
                continue
            token = Label(self.n, bits).to_token()
            mu_true = self.spectrum.value(bits)
            if self.cfg.shots.exact:
                self.cset = self.cset.with_exact(bits, mu_true)
                measured[token] = mu_true
            else:
                mu_hat = measure_label(mu_true, self.cfg.shots.n_shots, rng)
                self.cset = add_band(self.cset, bits, mu_hat, self.eta)
                measured[token] = mu_hat
                self.total_shots += self.cfg.shots.n_shots
            self.queried[bits] = True
            new_tokens.append(token)
        return new_tokens, measured

    def check_invariants(self, record: RoundRecord) -> None:
        level = self.cfg.assertions
        if level == "off":
            return
        problems: list[str] = []
        if record.lower < self.prev_lower - _WIDTH_SLACK:
            problems.append(
                f"lower endpoint regressed: {self.prev_lower} -> {record.lower}"
            )
        if record.upper > self.prev_upper + _WIDTH_SLACK:
            problems.append(
                f"upper endpoint regressed: {self.prev_upper} -> {record.upper}"
            )
        if self.cfg.shots.exact:
            coverage_cap = min(1.0, 2.0 * record.m_unqueried / (1 << self.n))
            if record.width > coverage_cap + _BOUND_SLACK:
                problems.append(
                    f"coverage bound violated: W={record.width} > {coverage_cap}"
                )
            mass_cap = record.d_total / (1 << self.n)
            if record.width > mass_cap + _BOUND_SLACK:
                problems.append(
                    f"disagreement-mass bound violated: W={record.width} > {mass_cap}"
                )
        monitor = self.monitor
        if monitor is not None and monitor.structurally_done(self.cset.entries):
            if record.width > 1e-9 + _WIDTH_SLACK:
                problems.append(
                    f"affine structural coverage reached but width={record.width}"
                )
        if problems:
            record.violations.extend(problems)
            if level == "strict":
                raise InvariantViolation("; ".join(problems))

    def certify_round(
        self,
        t: int,
        kind: str,
        queried_tokens: list[str],
        new_tokens: list[str],
        measured: dict[str, float],
        started: float,
    ) -> tuple[RoundRecord, DisagreementSpectrum | None]:
        """Solve the endpoints and record the round.

        Also returns the disagreement spectrum of the endpoint witnesses,
        which the policies pick the next query from; None when unsolved.
        """
        result = solve_endpoints(self.cset, engine=self.engine)
        solved = result.status == "solved"
        d = None
        if solved:
            d = disagreement_spectrum(result.witness_lo, result.witness_hi)
        record = RoundRecord(
            t=t,
            kind=kind,
            queried=queried_tokens,
            new_labels=new_tokens,
            measured=measured,
            lower=result.lower if solved else math.nan,
            upper=result.upper if solved else math.nan,
            width=result.width if solved else math.nan,
            m_unqueried=(1 << self.n) - 1 - len(self.cset),
            d_total=d.total_unqueried(self.queried) if solved else math.nan,
            d_max=d.max_unqueried(self.queried) if solved else math.nan,
            shots_spent=0
            if self.cfg.shots.exact
            else self.cfg.shots.n_shots * len(new_tokens),
            status=result.status,
            wall_ms=(time.perf_counter() - started) * 1e3,
        )
        if solved:
            self.check_invariants(record)
            self.prev_lower = max(self.prev_lower, record.lower)
            self.prev_upper = min(self.prev_upper, record.upper)
        return record, d

    def stop_reason_for(self, record: RoundRecord, t: int) -> str | None:
        """Width first, then coverage, then the round cap."""
        if record.status != "solved":
            return "infeasible"
        if record.width <= self.cfg.epsilon + _WIDTH_SLACK:
            return "width"
        if len(self.cset) >= (1 << self.n) - 1:
            return "coverage"
        if t >= self.cfg.t_max:
            return "cap"
        return None


def _run(
    cfg: RunConfig,
    instance_seq: np.random.SeedSequence,
    run_seq: np.random.SeedSequence,
) -> RunTrace:
    """The adaptive loop: one round per query unit, a Gauge or a Label."""
    p_true, meta = cfg.instance.realize(cfg.n, np.random.default_rng(instance_seq))
    rng = np.random.default_rng(run_seq)
    state = _LoopState(cfg, p_true, meta)
    unit: Gauge | Label | None = _resolve_initial_gauge(cfg, rng)
    fine = cfg.policy.kind == "fine"
    # Round 0 of a fine run is its initial gauge; its cap counts labels.
    t = 0 if fine else 1
    rounds: list[RoundRecord] = []
    while True:
        started = time.perf_counter()
        cols = unit.columns if isinstance(unit, Gauge) else (unit,)
        new_tokens, measured = state.absorb([c.bits for c in cols], rng)
        record, d = state.certify_round(
            t,
            "gauge" if isinstance(unit, Gauge) else "label",
            [c.to_token() for c in cols],
            new_tokens,
            measured,
            started,
        )
        rounds.append(record)
        stop = state.stop_reason_for(record, t)
        if stop is not None:
            break
        t += 1
        if fine:
            unit = select_single_label(d, state.queried)
        else:
            unit = cfg.policy.select_gauge(d, state.queried, rng)
        if unit is None:
            # Full coverage is caught by stop_reason_for, so this cannot
            # trigger; kept as a hard guard for policy contract changes.
            stop = "coverage"
            break
    meta_out = {}
    if meta.get("v_basis") is not None:
        meta_out = {
            "v_basis": [v.to_token() for v in meta["v_basis"]],
            "s0": meta["s0"].to_token(),
        }
    return RunTrace(
        config=cfg,
        true_fidelity=p_true.fidelity(),
        rounds=rounds,
        stop_reason=stop,
        t_eps=t if stop == "width" else None,
        eta=state.eta,
        total_shots=state.total_shots,
        instance_meta=meta_out,
    )


def run_adaptive(cfg: RunConfig) -> RunTrace:
    """Adaptive certification under any policy: one gauge per round for the
    gauge policies; for ``fine``, the initial gauge in round 0 and then one
    label per round."""
    return _run(cfg, *np.random.SeedSequence(cfg.seed).spawn(2))


# An alias, because callers outside the package (perfbench) import this name.
run_fine_grained = run_adaptive


@dataclass(frozen=True)
class ArmSpec:
    """One ensemble arm: a named (policy, shot model) combination."""

    name: str
    policy: PolicyChoice
    shots: ShotModel = ShotModel()

    def to_json_dict(self) -> dict:
        return {"name": self.name, "policy": str(self.policy), "shots": str(self.shots)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArmSpec":
        _check_keys(data, {"name", "policy", "shots"}, "arm")
        return cls(
            name=data["name"],
            policy=PolicyChoice.parse(data["policy"]),
            shots=ShotModel.parse(data.get("shots", "exact")),
        )


@dataclass(frozen=True)
class EnsembleConfig:
    """Paired Monte-Carlo comparison of several arms on shared instances."""

    trials: int
    base: RunConfig
    arms: tuple[ArmSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not self.arms:
            raise ValueError("need at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate arm names: {names}")
        for arm_index in range(len(self.arms)):
            self.run_config(0, arm_index)  # each arm's config must be valid

    def run_config(self, trial: int, arm_index: int) -> RunConfig:
        """The fully resolved RunConfig for one (trial, arm) task.

        The instance stream is (seed, trial, 0) and the run stream
        (seed, trial, 1 + arm index), so all arms of a trial share the same
        instance while their policy/measurement randomness stays independent
        of scheduling.
        """
        arm = self.arms[arm_index]
        return replace(
            self.base,
            policy=arm.policy,
            shots=arm.shots,
            seed=self.seed,
        )

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "base": self.base.to_json_dict(),
            "arms": [a.to_json_dict() for a in self.arms],
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EnsembleConfig":
        """Inverse of ``to_json_dict``; also accepts the config files'
        ``"version"`` key.  Unknown keys raise ``ValueError``."""
        _check_keys(data, {"version", "trials", "base", "arms", "seed"}, "config")
        _check_keys(data["base"], _RUN_KEYS - {"version"}, "base")
        return cls(
            trials=int(data["trials"]),
            base=RunConfig.from_json_dict(data["base"]),
            arms=tuple(ArmSpec.from_json_dict(a) for a in data["arms"]),
            seed=int(data.get("seed", 0)),
        )


def _ensemble_task(ens: EnsembleConfig, trial: int, arm_index: int) -> RunTrace:
    cfg = ens.run_config(trial, arm_index)
    instance_seq = np.random.SeedSequence(entropy=ens.seed, spawn_key=(trial, 0))
    run_seq = np.random.SeedSequence(
        entropy=ens.seed, spawn_key=(trial, 1 + arm_index)
    )
    return _run(cfg, instance_seq, run_seq)


@dataclass
class EnsembleResult:
    """All traces of an ensemble plus the aggregated summary."""

    config: EnsembleConfig
    traces: dict[str, list[RunTrace]]  # arm name -> per-trial traces

    def _width_matrix(self, arm: str) -> np.ndarray:
        """(trials, t_max) certified widths, carried forward after stopping."""
        t_max = self.config.base.t_max
        rows = []
        for trace in self.traces[arm]:
            by_round = {r.t: r.width for r in trace.rounds if r.status == "solved"}
            widths = []
            last = by_round.get(0, 1.0)
            for t in range(1, t_max + 1):
                last = by_round.get(t, last)
                widths.append(last)
            rows.append(widths)
        return np.array(rows)

    def summary_dict(self) -> dict:
        arms_out = {}
        for arm in self.traces:
            traces = self.traces[arm]
            widths = self._width_matrix(arm)
            med = np.median(widths, axis=0)
            q1 = np.percentile(widths, 25, axis=0)
            q3 = np.percentile(widths, 75, axis=0)
            t_eps_vals = [
                t.t_eps if t.t_eps is not None else math.inf for t in traces
            ]
            med_t = statistics.median(t_eps_vals)
            failed = sum(1 for t in traces if t.failed)
            final_widths = widths[:, -1]
            arms_out[arm] = {
                "trials": len(traces),
                "median_t_eps": None if math.isinf(med_t) else med_t,
                "t_eps_reached": sum(1 for v in t_eps_vals if not math.isinf(v)),
                "failed_runs": failed,
                "median_final_width": float(np.median(final_widths)),
                "iqr_final_width": [
                    float(np.percentile(final_widths, 25)),
                    float(np.percentile(final_widths, 75)),
                ],
                "median_width_per_round": [float(x) for x in med],
                "iqr_width_per_round": [
                    [float(a), float(b)] for a, b in zip(q1, q3)
                ],
                "contains_truth": sum(1 for t in traces if t.contains_truth()),
                "total_shots": sum(t.total_shots for t in traces),
                "violations": sum(t.violation_count() for t in traces),
                "infeasible_runs": sum(
                    1 for t in traces if t.stop_reason == "infeasible"
                ),
            }
        return {
            "trials": self.config.trials,
            "seed": self.config.seed,
            "epsilon": self.config.base.epsilon,
            "t_max": self.config.base.t_max,
            "arms": arms_out,
        }

    def rounds_rows(self) -> list[dict]:
        """Flat per-round rows for the CSV emitter."""
        rows = []
        for arm in self.traces:
            for trial, trace in enumerate(self.traces[arm]):
                for r in trace.rounds:
                    rows.append(
                        {
                            "trial": trial,
                            "policy": arm,
                            "t": r.t,
                            "L": r.lower,
                            "U": r.upper,
                            "W": r.width,
                            "m_t": r.m_unqueried,
                            "D_t": r.d_total,
                            "new_labels": ";".join(r.new_labels),
                        }
                    )
        return rows


def run_ensemble(ens: EnsembleConfig, threads: int = 1) -> EnsembleResult:
    """Run all (trial, arm) pairs; aggregation is order-independent."""
    tasks = [
        (trial, arm_index)
        for trial in range(ens.trials)
        for arm_index in range(len(ens.arms))
    ]
    results: dict[tuple[int, int], RunTrace] = {}
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {
                key: pool.submit(_ensemble_task, ens, *key) for key in tasks
            }
            for key, fut in futures.items():
                results[key] = fut.result()
    else:
        for key in tasks:
            results[key] = _ensemble_task(ens, *key)
    traces = {
        arm.name: [results[(trial, i)] for trial in range(ens.trials)]
        for i, arm in enumerate(ens.arms)
    }
    return EnsembleResult(ens, traces)
