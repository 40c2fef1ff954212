"""The benchmark's workloads: an endless, seeded stream of run configs each.

A workload is a closed loop of certification runs: the next config is run
only after the previous run returns.  Every config is generated from the
workload seed, so the same seed gives the same stream and the program
receives only the generated ``RunConfig`` objects.

The two campaign workloads replay the base and arms of a bundled ensemble
config, one trial after another, with a fresh instance seed per trial.  All
arms of a trial share the instance (``run_adaptive`` derives the instance
from ``RunConfig.seed``), as in the campaigns themselves.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from stabcert import (
    EnsembleConfig,
    InstanceSpec,
    PolicyChoice,
    RunConfig,
    RunTrace,
    run_adaptive,
    run_fine_grained,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "stabcert" / "configs"

# Stream seeds are 32-bit, so this warm-up seed never equals one of them.
_WARMUP_SEED = 1 << 32


@dataclass(frozen=True)
class Workload:
    """One workload: its config stream and how its numbers are summarised.

    ``prefix_runs`` is the number of leading runs over which the
    deterministic metrics (labels and widths) are averaged; the timed loop
    always completes at least that many runs.  ``tail_pct`` is the fixed
    percentile reported as ``run_s.tail``.  ``tag`` keeps the seed streams
    of different workloads apart.
    """

    name: str
    prefix_runs: int
    tail_pct: float
    load: Callable[[], tuple[RunConfig, ...]]
    tag: int

    def stream(
        self, templates: tuple[RunConfig, ...], seed: int
    ) -> Iterator[RunConfig]:
        """Each template in turn, sharing one fresh instance seed per trial.

        Any integer is a valid workload seed; negative ones are taken
        modulo 2^64, since ``SeedSequence`` wants non-negative entropy.
        """
        entropy = seed % (1 << 64)
        for block in itertools.count():
            ss = np.random.SeedSequence(entropy, spawn_key=(self.tag, block))
            for trial_seed in ss.generate_state(64):
                for tpl in templates:
                    yield replace(tpl, seed=int(trial_seed))


def run_one(cfg: RunConfig) -> RunTrace:
    """The public entry point that matches the config's policy."""
    if cfg.policy.kind == "fine":
        return run_fine_grained(cfg)
    return run_adaptive(cfg)


def warmup_config(cfg: RunConfig) -> RunConfig:
    """A short run of the same kind, so that lazy solver set-up happens once."""
    return replace(cfg, t_max=2, seed=_WARMUP_SEED)


def _load_campaign(filename: str) -> tuple[RunConfig, ...]:
    """Base config with each arm applied, strict assertions, as run templates."""
    with open(CONFIG_DIR / filename, "r", encoding="utf-8") as fh:
        ens = EnsembleConfig.from_json_dict(json.load(fh))
    return tuple(
        replace(ens.base, policy=arm.policy, shots=arm.shots, assertions="strict")
        for arm in ens.arms
    )


def _load_interactive() -> tuple[RunConfig, ...]:
    """n=6 with the default solver: witness gauges on a Dirichlet and a sparse
    (k=3) instance, and fine single labels on the Dirichlet one.

    The three run kinds take roughly 6, 30 and 60 ms, so the median run falls
    inside the middle kind rather than in a gap between two kinds, where it
    would jump with small changes in the mix.
    """
    dirichlet = InstanceSpec("dirichlet")
    sparse = InstanceSpec("sparse", fidelity=0.8, k_errors=3)
    kinds = (
        (dirichlet, PolicyChoice("witness")),
        (dirichlet, PolicyChoice("fine")),
        (sparse, PolicyChoice("witness")),
    )
    return tuple(
        RunConfig(
            n=6,
            instance=inst,
            policy=pol,
            epsilon=0.01,
            t_max=12,
            assertions="strict",
        )
        for inst, pol in kinds
    )


WORKLOADS: dict[str, Workload] = {
    "campaign_fullsupport": Workload(
        name="campaign_fullsupport",
        prefix_runs=12,
        tail_pct=90.0,
        load=lambda: _load_campaign("fullsupport_n8.cfg"),
        tag=1,
    ),
    "campaign_finiteshot": Workload(
        name="campaign_finiteshot",
        prefix_runs=52,
        tail_pct=80.0,
        load=lambda: _load_campaign("finiteshot_n8.cfg"),
        tag=2,
    ),
    "interactive_n6": Workload(
        name="interactive_n6",
        prefix_runs=399,
        tail_pct=97.0,
        load=_load_interactive,
        tag=3,
    ),
}
