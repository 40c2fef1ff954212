"""One workload process: set up, run the closed loop, check, report.

Run by ``perfbench/run.py`` as ``python -m perfbench.worker``; it prints one
JSON object as its last line.  ``--setup-only`` stops after set-up, which is
how the launcher repeats the set-up measurement.  Tests call ``measure``
to run a workload in-process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import stabcert
from perfbench.check import RunChecker
from perfbench.speed import NOMINAL_S, reference_seconds, speed_factor
from perfbench.tracing import ROOT, Tracer, installed
from perfbench.workloads import WORKLOADS, Workload, run_one, warmup_config
from stabcert import RunConfig, RunTrace


@dataclass
class Sample:
    """One attempted run: its config, trace (None if it raised), its wall
    time, and the mean reference time of the probes before and after it."""

    cfg: RunConfig
    trace: RunTrace | None
    seconds: float
    error: str | None = None
    reference: float = NOMINAL_S

    @property
    def normalized(self) -> float:
        """Wall time scaled to the nominal machine speed (see speed.py)."""
        return self.seconds * NOMINAL_S / self.reference


@dataclass
class Loop:
    """The samples of one closed loop, its wall time and its probe time."""

    samples: list[Sample]
    wall_s: float
    probe_s: float

    def rate(self) -> float:
        """Completed runs per normalized second of run time."""
        done = sum(1 for s in self.samples if s.error is None)
        return done / sum(s.normalized for s in self.samples)


def closed_loop(
    stream, budget_s: float, min_runs: int, tracer: Tracer | None = None
) -> Loop:
    """Run configs one after another until ``budget_s`` has passed and at
    least ``min_runs`` runs are done.  The reference is timed before every
    run and once after the last."""
    root = tracer.name_id(ROOT) if tracer is not None else -1
    samples: list[Sample] = []
    probes = [reference_seconds()]
    clock = time.perf_counter
    start = clock()
    while len(samples) < min_runs or clock() - start < budget_s:
        cfg = next(stream)
        t1 = clock()
        span = tracer.begin(root) if tracer is not None else -1
        try:
            samples.append(Sample(cfg, run_one(cfg), 0.0))
        except Exception as exc:  # a failed run is counted, the loop goes on
            samples.append(Sample(cfg, None, 0.0, f"{type(exc).__name__}: {exc}"))
        finally:
            if tracer is not None:
                tracer.finish(span)
        samples[-1].seconds = clock() - t1
        probes.append(reference_seconds())
        samples[-1].reference = (probes[-2] + probes[-1]) / 2
    return Loop(samples, clock() - start, sum(probes[1:]))


def check_samples(samples: list[Sample], checker: RunChecker) -> list[str]:
    """Marks failed samples in place; returns one message per failed run."""
    failures = []
    for i, s in enumerate(samples):
        if s.error is None:
            problems = checker.problems(s.trace)
            if problems:
                s.error = "; ".join(problems)
        if s.error is not None:
            failures.append(f"run {i} (seed {s.cfg.seed}, {s.cfg.policy}, "
                            f"{s.cfg.shots}): {s.error}")
    return failures


def _percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def end_to_end_metrics(wl: Workload, loop: Loop) -> tuple[dict, dict]:
    """The end-to-end metrics (setup_s is added by the caller) and extra info."""
    samples = loop.samples
    times = [s.normalized for s in samples]
    prefix = [s.trace for s in samples[: wl.prefix_runs] if s.trace is not None]
    labels = [sum(len(r.new_labels) for r in t.rounds) for t in prefix]
    widths = [t.final_width for t in prefix]
    tail = _percentile(times, wl.tail_pct)
    metrics = {
        "runs_per_s": (loop.rate(), "1/s"),
        "run_s.p50": (_percentile(times, 50.0), "s"),
        "run_s.tail": (tail, "s"),
        "labels_per_run.mean": (float(np.mean(labels)) if labels else 0.0, "labels"),
        "final_width.mean": (float(np.mean(widths)) if widths else 0.0, "fidelity"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    raw = [s.seconds for s in samples]
    done = sum(1 for s in samples if s.error is None)
    info = {
        "runs": len(samples),
        "prefix_runs": len(prefix),
        "tail_percentile": wl.tail_pct,
        "tail_runs_beyond": sum(1 for t in times if t > tail),
        "wall_s": loop.wall_s,
        "raw_runs_per_s": done / (loop.wall_s - loop.probe_s),
        "raw_run_s.p50": _percentile(raw, 50.0),
        "raw_run_s.tail": _percentile(raw, wl.tail_pct),
        "speed_factor.median": float(
            np.median([NOMINAL_S / s.reference for s in samples])
        ),
    }
    return metrics, info


_LAYERS = ("polytope", "kernels", "syndrome", "policy", "gf2", "shots", "runner")

# Per-layer metrics: name -> (span, field, unit); fields are "calls", "s"
# (inclusive seconds) and "self_s" (exclusive seconds), all per run.
_SPAN_METRICS = {
    "polytope.solve.calls": ("polytope.solve", "calls", "calls/run"),
    "polytope.solve.s": ("polytope.solve", "s", "s/run"),
    "polytope.solve.self_s": ("polytope.solve", "self_s", "s/run"),
    "polytope.highs.calls": ("polytope.highs", "calls", "calls/run"),
    "polytope.highs.s": ("polytope.highs", "s", "s/run"),
    "polytope.constraint.s": ("polytope.constraint", "s", "s/run"),
    "kernels.fwht.calls": ("kernels.fwht", "calls", "calls/run"),
    "kernels.fwht.s": ("kernels.fwht", "s", "s/run"),
    "kernels.pivot.calls": ("kernels.pivot", "calls", "calls/run"),
    "kernels.pivot.s": ("kernels.pivot", "s", "s/run"),
    "syndrome.signs.calls": ("syndrome.signs", "calls", "calls/run"),
    "syndrome.signs.s": ("syndrome.signs", "s", "s/run"),
    "syndrome.realize.s": ("syndrome.realize", "s", "s/run"),
    "policy.disagreement.s": ("policy.disagreement", "s", "s/run"),
    "policy.select.s": ("policy.select", "s", "s/run"),
    "policy.scan.s": ("policy.scan", "s", "s/run"),
    "gf2.greedy.calls": ("gf2.greedy", "calls", "calls/run"),
    "gf2.greedy.s": ("gf2.greedy", "s", "s/run"),
    "gf2.sample.s": ("gf2.sample", "s", "s/run"),
    "shots.measure.calls": ("shots.measure", "calls", "calls/run"),
    "shots.measure.s": ("shots.measure", "s", "s/run"),
}


def per_layer_metrics(tracer: Tracer, traced: Loop, untraced: Loop) -> dict:
    """Per-run layer numbers from the traced loop, plus reconciliation."""
    samples = traced.samples
    runs = len(samples)
    spans = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {
        name: (spans.get(span, empty)[field] / runs, unit)
        for name, (span, field, unit) in _SPAN_METRICS.items()
    }
    counts = tracer.counts
    solves = counts["polytope.solve.calls"]
    metrics["polytope.rows_per_solve"] = (
        counts["polytope.rows"] / solves if solves else 0.0,
        "rows",
    )
    metrics["polytope.fallbacks"] = (counts["polytope.fallbacks"] / runs, "1/run")
    metrics["polytope.infeasible"] = (counts["polytope.infeasible"] / runs, "1/run")
    metrics["kernels.fwht.bytes"] = (counts["kernels.fwht.bytes"] / runs, "B/run")
    metrics["kernels.pivot.bytes"] = (counts["kernels.pivot.bytes"] / runs, "B/run")
    traces = [s.trace for s in samples if s.trace is not None]
    rounds = sum(len(t.rounds) for t in traces)
    queried = sum(len(r.queried) for t in traces for r in t.rounds)
    new = sum(len(r.new_labels) for t in traces for r in t.rounds)
    metrics["runner.rounds"] = (rounds / runs, "rounds/run")
    metrics["runner.new_label_ratio"] = (new / queried if queried else 0.0, "ratio")
    layer_self = {layer: 0.0 for layer in _LAYERS}
    for name, fields in spans.items():
        layer_self[name.split(".", 1)[0]] += fields["self_s"]
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s / runs, "s/run")
    traced_rate, untraced_rate = traced.rate(), untraced.rate()
    # The loop's time outside the reference probes is all run time, so the
    # layer self times should account for nearly all of it.
    loop_s = traced.wall_s - traced.probe_s
    metrics["trace.self_sum_frac"] = (sum(layer_self.values()) / loop_s, "ratio")
    metrics["trace.runs_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_runs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_runs_per_s"] = (untraced_rate - traced_rate, "1/s")
    metrics["trace.spans"] = (len(tracer.start) / runs, "spans/run")
    return metrics


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    out: dict[str, int] = {}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return out
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in symbols:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    """Versions and thread settings that the numbers depend on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "stabcert": stabcert.__version__,
        "kernel_backend": stabcert.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": _process_threads(),
        "machine": platform.machine(),
    }


def set_up(wl: Workload) -> tuple[RunConfig, ...]:
    """Load the workload's configs and make one short run of each kind."""
    templates = wl.load()
    kinds: dict[tuple[str, bool], RunConfig] = {}
    for tpl in templates:
        kinds.setdefault((tpl.policy.kind, tpl.shots.exact), tpl)
    for tpl in kinds.values():
        run_one(warmup_config(tpl))
    return templates


def measure(
    wl: Workload,
    templates: tuple[RunConfig, ...],
    seed: int,
    seconds: float,
    trace: bool,
    min_runs: int | None = None,
) -> dict:
    """Run the workload's closed loop and check every run.

    With ``trace`` the budget is split between an untraced and a traced
    loop, and the per-layer metrics come from the traced one.
    """
    stream = wl.stream(templates, seed)
    prefix = wl.prefix_runs if min_runs is None else min_runs
    checker = RunChecker()
    if not trace:
        loop = closed_loop(stream, seconds, prefix)
        failures = check_samples(loop.samples, checker)
        metrics, info = end_to_end_metrics(wl, loop)
        attempted = len(loop.samples)
    else:
        plain = closed_loop(stream, seconds / 2, 1)
        tracer = Tracer()
        with installed(tracer):
            traced = closed_loop(stream, seconds / 2, 1, tracer)
        failures = check_samples(plain.samples, checker) + check_samples(
            traced.samples, checker
        )
        metrics = per_layer_metrics(tracer, traced, plain)
        attempted = len(plain.samples) + len(traced.samples)
        info = {"runs": attempted, "traced_runs": len(traced.samples)}
    info["failed_frac"] = len(failures) / attempted
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "failures": failures[:20],
    }


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the launcher started this process")
    p.add_argument("--setup-only", action="store_true")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    wl = WORKLOADS[args.workload]
    templates = set_up(wl)
    setup_raw = time.monotonic() - args.t0
    setup_s = setup_raw * speed_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
        return 0
    result = measure(wl, templates, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["info"]["raw_setup_s"] = setup_raw
    result["env"] = environment()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
