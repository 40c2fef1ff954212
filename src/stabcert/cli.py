"""Command-line frontend.

Subcommands:
  one-gauge  closed-form certificate from generator expectations
  certify    one adaptive certification run from a config file (any policy,
             including the single-label "fine" schedule)
  ensemble   Monte-Carlo policy comparison from a config file
  selftest   brute-force oracle suites at small n

Campaign outputs are a directory with `config.echo` (the effective,
rerunnable configuration), machine-readable JSON, and a per-round CSV.
Exit codes: 0 success, 2 bad input or config, 3 infeasible run, 4 selftest
failure, 5 LP solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from stabcert.certificates import (
    confidence_interval,
    one_gauge_certificate,
)
from stabcert.polytope import SolverError
from stabcert.runner import (
    EnsembleConfig,
    RunConfig,
    RunTrace,
    run_adaptive,
    run_ensemble,
)
from stabcert.selftest import run_selftest

CONFIG_VERSION = 1

class ConfigError(Exception):
    pass


def _fail(message: str, code: int) -> int:
    print(f"stabcert: {message}", file=sys.stderr)
    return code


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    path = key.strip().split(".")
    if not all(path):
        raise ConfigError(f"override {text!r} has an empty key component")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def _apply_overrides(data: dict, overrides: list[str]) -> dict:
    for text in overrides:
        path, value = _parse_override(text)
        node = data
        for part in path[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                raise ConfigError(f"override path {'.'.join(path)!r} not found")
            node = nxt
        node[path[-1]] = value
    return data


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    data = _apply_overrides(data, overrides)
    if data.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config {path!r} needs \"version\": {CONFIG_VERSION}, "
            f"got {data.get('version')!r}"
        )
    return data


def _run_config_from(data: dict) -> RunConfig:
    if "seed" not in data:
        raise ConfigError("a seed is required for reproducible runs")
    instance = data.get("instance")
    if not isinstance(instance, dict):
        raise ConfigError("config needs an \"instance\" object")
    try:
        return RunConfig.from_json_dict(data)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid run config: {exc}") from exc


def _ensemble_config_from(data: dict) -> EnsembleConfig:
    if "seed" not in data:
        raise ConfigError("a seed is required for reproducible ensembles")
    base = data.get("base")
    if not isinstance(base, dict):
        raise ConfigError("config needs a \"base\" run object")
    instance = base.get("instance")
    if not isinstance(instance, dict):
        raise ConfigError("base config needs an \"instance\" object")
    arms = data.get("arms")
    if not isinstance(arms, list) or not arms:
        raise ConfigError("config needs a nonempty \"arms\" list")
    for arm in arms:
        if not isinstance(arm, dict):
            raise ConfigError("every arm must be an object")
    try:
        return EnsembleConfig.from_json_dict(data)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid ensemble config: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_echo(out_dir: str, effective: dict) -> None:
    _write_json(os.path.join(out_dir, "config.echo"), effective)


def _write_trace_csv(path: str, trace: RunTrace) -> None:
    fields = [
        "t",
        "kind",
        "L",
        "U",
        "W",
        "m_unqueried",
        "D",
        "Delta",
        "shots_spent",
        "status",
        "new_labels",
        "queried",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for r in trace.rounds:
            writer.writerow(
                [
                    r.t,
                    r.kind,
                    repr(r.lower),
                    repr(r.upper),
                    repr(r.width),
                    r.m_unqueried,
                    repr(r.d_total),
                    repr(r.d_max),
                    r.shots_spent,
                    r.status,
                    ";".join(r.new_labels),
                    ";".join(r.queried),
                ]
            )


def _write_rounds_csv(path: str, rows: list[dict]) -> None:
    fields = ["trial", "policy", "t", "L", "U", "W", "m_t", "D_t", "new_labels"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [
                    row["trial"],
                    row["policy"],
                    row["t"],
                    repr(row["L"]),
                    repr(row["U"]),
                    repr(row["W"]),
                    row["m_t"],
                    repr(row["D_t"]),
                    row["new_labels"],
                ]
            )


def cmd_one_gauge(args: argparse.Namespace) -> int:
    try:
        if args.input == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read expectations: {exc}", 2)
    if not isinstance(data, dict) or "mu" not in data:
        return _fail("input must be a JSON object with a \"mu\" list", 2)
    mu = data["mu"]
    has_m = "m" in data
    has_delta = "delta" in data
    if has_m != has_delta:
        return _fail("\"m\" and \"delta\" must be given together", 2)
    extra = set(data) - {"mu", "m", "delta"}
    if extra:
        return _fail(f"unknown input keys: {', '.join(sorted(extra))}", 2)
    try:
        cert = one_gauge_certificate(mu)
        out = {"n": len(mu), "lower": cert.lower, "upper": cert.upper}
        if has_m:
            conf = confidence_interval(mu, float(data["m"]), float(data["delta"]))
            out.update(
                {
                    "m": float(data["m"]),
                    "delta": float(data["delta"]),
                    "epsilon": conf.epsilon,
                    "lower_conf": conf.lower,
                    "upper_conf": conf.upper,
                }
            )
    except (TypeError, ValueError) as exc:
        return _fail(f"invalid expectations: {exc}", 2)
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        data = _load_config(args.config, args.set or [])
        cfg = _run_config_from(data)
    except ConfigError as exc:
        return _fail(str(exc), 2)
    try:
        trace = run_adaptive(cfg)
    except SolverError as exc:
        return _fail(f"solver failed: {exc}", 5)
    os.makedirs(args.out, exist_ok=True)
    _write_echo(args.out, data)
    _write_json(
        os.path.join(args.out, "trace.json"),
        trace.to_json_dict(include_timings=args.timings),
    )
    _write_trace_csv(os.path.join(args.out, "rounds.csv"), trace)
    print(
        f"stop={trace.stop_reason} t_eps={trace.t_eps} "
        f"L={trace.final_lower!r} U={trace.final_upper!r} "
        f"W={trace.final_width!r} out={args.out}"
    )
    if trace.stop_reason == "infeasible":
        return 3
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    try:
        data = _load_config(args.config, args.set or [])
        ens = _ensemble_config_from(data)
    except ConfigError as exc:
        return _fail(str(exc), 2)
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    try:
        result = run_ensemble(ens, threads=threads)
    except SolverError as exc:
        return _fail(f"solver failed: {exc}", 5)
    os.makedirs(args.out, exist_ok=True)
    _write_echo(args.out, data)
    summary = result.summary_dict()
    _write_json(os.path.join(args.out, "summary.json"), summary)
    _write_rounds_csv(os.path.join(args.out, "rounds.csv"), result.rounds_rows())
    for arm, stats in summary["arms"].items():
        print(
            f"{arm}: median_t_eps={stats['median_t_eps']} "
            f"failed={stats['failed_runs']}/{stats['trials']} "
            f"median_final_width={stats['median_final_width']:.6g} "
            f"violations={stats['violations']}"
        )
    print(f"out={args.out}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(seed=args.seed, scale=args.scale)
    bad = 0
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name} - {detail}")
        bad += 0 if ok else 1
    if bad:
        print(f"stabcert: {bad} suite(s) failed", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabcert",
        description="Certified stabilizer-fidelity intervals from syndrome data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "one-gauge",
        help="closed-form certificate from a JSON file of generator expectations",
    )
    p.add_argument("input", help="JSON file with {\"mu\": [...], \"m\"?, \"delta\"?}; - for stdin")
    p.set_defaults(fn=cmd_one_gauge)

    p = sub.add_parser(
        "certify", help="run one adaptive certification (any policy, including fine)"
    )
    p.add_argument("config", help="JSON run config (version 1)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (dotted path, JSON value)",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings in trace.json (breaks bit-identical reruns)",
    )
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("ensemble", help="run a Monte-Carlo policy comparison")
    p.add_argument("config", help="JSON ensemble config (version 1)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (dotted path, JSON value)",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=0,
        help="worker processes (default: available parallelism)",
    )
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("selftest", help="run the small-n brute-force oracle suites")
    p.add_argument("--seed", type=int, default=0, help="suite RNG seed")
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on per-suite case counts",
    )
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
