"""Acceptance gate: ten product-level checks at pinned tolerances.

Every check prints exactly one PASS/FAIL line to the real stdout (bypassing
pytest capture) so the gate verdict is always visible in the run log, then
asserts.  The three Monte-Carlo campaigns are shared across checks through
session-scoped fixtures to stay inside the stated runtime budgets.
"""

import json
import math
import sys
import time
from importlib import resources

import numpy as np
import pytest

from stabcert.certificates import (
    confidence_interval,
    kkl_lower,
    kkl_upper,
    one_gauge_certificate,
)
from stabcert.gf2 import Gauge, Label, XorBasis, sample_uniform_gauge
from stabcert.policy import PolicyChoice
from stabcert.polytope import build_exact_constraints, solve_endpoints
from stabcert.runner import (
    ArmSpec,
    EnsembleConfig,
    InstanceSpec,
    RunConfig,
    run_adaptive,
    run_ensemble,
)
from stabcert.syndrome import (
    make_indistinguishable_pair,
    make_rho_ex,
    sample_dirichlet_uniform,
    walsh,
)


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {verdict} - {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"acceptance {num:02d}: {detail}"


def _bundled_ensemble(name: str) -> EnsembleConfig:
    path = resources.files("stabcert").joinpath("configs").joinpath(name)
    return EnsembleConfig.from_json_dict(json.loads(path.read_text()))


@pytest.fixture(scope="session")
def affine_campaign():
    ens = _bundled_ensemble("affine_n8.cfg")
    t0 = time.perf_counter()
    result = run_ensemble(ens, threads=1)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def fullsupport_campaign():
    ens = _bundled_ensemble("fullsupport_n8.cfg")
    t0 = time.perf_counter()
    result = run_ensemble(ens, threads=1)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def finiteshot_campaign():
    ens = _bundled_ensemble("finiteshot_n8.cfg")
    t0 = time.perf_counter()
    result = run_ensemble(ens, threads=1)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def uniform_rate_traces():
    ens = EnsembleConfig(
        trials=200,
        base=RunConfig(
            n=6,
            instance=InstanceSpec(kind="dirichlet"),
            policy=PolicyChoice("uniform"),
            epsilon=0.0,
            t_max=20,
            seed=0,
            assertions="strict",
        ),
        arms=(ArmSpec("uniform", PolicyChoice("uniform")),),
        seed=606,
    )
    return run_ensemble(ens, threads=1).traces["uniform"]


@pytest.fixture(scope="session")
def affine_structure_traces():
    outside, inside = [], []
    for i in range(20):
        r = 2 + i % 3
        for s0, bucket in (
            ("outside_support", outside),
            ("in_support", inside),
        ):
            cfg = RunConfig(
                n=8,
                instance=InstanceSpec(kind="affine", r=r, s0=s0),
                policy=PolicyChoice("witness"),
                epsilon=0.0,
                t_max=20,
                seed=1000 + i,
                assertions="strict",
            )
            bucket.append(run_adaptive(cfg))
    return outside, inside


def test_01_worked_example_intervals():
    t0 = time.perf_counter()
    p = make_rho_ex()
    spec = walsh(p)
    canonical = [1, 2, 4]
    parity = [3, 5, 7]
    cert_can = one_gauge_certificate([spec.value(b) for b in canonical])
    cert_par = one_gauge_certificate([spec.value(b) for b in parity])
    combined = solve_endpoints(build_exact_constraints(p, [Label(3, b) for b in canonical + parity]))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(cert_can.lower - 0.25) <= 1e-9
        and abs(cert_can.upper - 0.75) <= 1e-9
        and abs(cert_par.lower - 0.0) <= 1e-9
        and abs(cert_par.upper - 0.25) <= 1e-9
        and combined.status == "solved"
        and abs(combined.lower - 0.25) <= 1e-9
        and abs(combined.upper - 0.25) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"worked example intervals ({cert_can.lower:.3g},{cert_can.upper:.3g}) / "
        f"({cert_par.lower:.3g},{cert_par.upper:.3g}) / "
        f"({combined.lower:.3g},{combined.upper:.3g}), {elapsed:.2f}s",
    )


def test_02_closed_form_lp_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 7
        p = sample_dirichlet_uniform(n, rng)
        gauge = sample_uniform_gauge(n, rng)
        spec = walsh(p)
        mu = [spec.value(b) for b in gauge.column_bits()]
        result = solve_endpoints(build_exact_constraints(p, gauge.columns))
        worst = max(
            worst,
            abs(result.lower - kkl_lower(mu)),
            abs(result.upper - kkl_upper(mu)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 120.0
    _report(
        2,
        ok,
        f"1000 one-gauge solves at n=2..8, worst closed-form gap "
        f"{worst:.2e}, {elapsed:.1f}s",
    )


def test_03_ghz_upper_certificates():
    t0 = time.perf_counter()
    datasets = (
        ((0.958, 0.981, 0.969), 11000 / 3, ("1.000",) * 3, ("0.034", "0.030", "0.024")),
        ((0.771, 0.817, 0.676), 8192 / 3, ("0.878", "0.872", "0.865"), ("0.040", "0.034", "0.027")),
    )
    deltas = (0.001, 0.01, 0.1)
    got: list[str] = []
    ok = True
    for mu, m, want_upper, want_radius in datasets:
        for i, delta in enumerate(deltas):
            cert = confidence_interval(mu, m, delta)
            upper = f"{cert.upper:.3f}"
            radius = f"{cert.epsilon:.3f}"
            got.append(f"{upper}/{radius}")
            ok = ok and upper == want_upper[i] and radius == want_radius[i]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(3, ok, f"GHZ upper/radius table {' '.join(got)}, {elapsed:.2f}s")


def test_04_full_coverage_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    runs = 0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            cfg = RunConfig(
                n=n,
                instance=InstanceSpec(kind="dirichlet"),
                policy=PolicyChoice("witness"),
                epsilon=0.0,
                t_max=1 << n,
                seed=int(rng.integers(0, 2**31)),
                assertions="strict",
            )
            trace = run_adaptive(cfg)
            worst = max(
                worst,
                abs(trace.final_lower - trace.true_fidelity),
                abs(trace.final_upper - trace.true_fidelity),
            )
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 300.0
    _report(
        4,
        ok,
        f"{runs} full-coverage runs at n<=4, worst endpoint error "
        f"{worst:.2e}, {elapsed:.1f}s",
    )


def _recheck_rounds(trace) -> tuple[int, int]:
    """Re-verify monotonicity and the two width bounds from the records."""
    n = trace.config.n
    exact = trace.config.shots.exact
    prev_lo, prev_hi = 0.0, 1.0
    checked = 0
    bad = 0
    for rec in trace.rounds:
        if rec.status != "solved":
            continue
        checked += 1
        if rec.lower < prev_lo - 1e-9 or rec.upper > prev_hi + 1e-9:
            bad += 1
        if exact:
            if rec.width > 2.0 * rec.m_unqueried / (1 << n) + 1e-7:
                bad += 1
            if rec.width > rec.d_total / (1 << n) + 1e-7:
                bad += 1
        prev_lo = max(prev_lo, rec.lower)
        prev_hi = min(prev_hi, rec.upper)
    return checked, bad


def test_05_per_round_bounds_across_all_campaigns(
    affine_campaign,
    fullsupport_campaign,
    finiteshot_campaign,
    uniform_rate_traces,
    affine_structure_traces,
):
    all_traces = list(uniform_rate_traces)
    for result, _ in (affine_campaign, fullsupport_campaign, finiteshot_campaign):
        for traces in result.traces.values():
            all_traces.extend(traces)
    for bucket in affine_structure_traces:
        all_traces.extend(bucket)
    rounds = 0
    bad = 0
    recorded = 0
    for trace in all_traces:
        recorded += trace.violation_count()
        c, b = _recheck_rounds(trace)
        rounds += c
        bad += b
    ok = bad == 0 and recorded == 0
    _report(
        5,
        ok,
        f"{rounds} rounds across {len(all_traces)} runs rechecked, "
        f"{bad} bound violations, {recorded} recorded in-run violations",
    )


def test_06_indistinguishable_pairs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_entry = 0.0
    cases = 0
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            v = Label(n, int(rng.integers(1, 1 << n)))
            eta = float(rng.uniform(0.05, 1.0))
            p_plus, p_minus = make_indistinguishable_pair(n, v, eta)
            gap = abs(p_plus.fidelity() - p_minus.fidelity())
            worst_gap = max(worst_gap, abs(gap - 2.0 ** (1 - n) * eta))
            complement = [
                Label(n, b) for b in range(1, 1 << n) if b != v.bits
            ]
            subset_bits = [
                lab.bits for lab in complement if rng.random() < 0.5
            ]
            for labels in (complement, [Label(n, b) for b in subset_bits]):
                cs_p = build_exact_constraints(p_plus, labels)
                cs_m = build_exact_constraints(p_minus, labels)
                assert set(cs_p.entries) == set(cs_m.entries)
                for bits, (lo_p, hi_p) in cs_p.entries.items():
                    lo_m, hi_m = cs_m.entries[bits]
                    worst_entry = max(
                        worst_entry, abs(lo_p - lo_m), abs(hi_p - hi_m)
                    )
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-12 and worst_entry <= 1e-12
    _report(
        6,
        ok,
        f"{cases} masked-label pairs at n<=6, worst fidelity-gap error "
        f"{worst_gap:.1e}, worst constraint mismatch {worst_entry:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_07_policy_comparison_campaigns(affine_campaign, fullsupport_campaign):
    affine, t_affine = affine_campaign
    full, t_full = fullsupport_campaign
    a = affine.summary_dict()["arms"]
    f = full.summary_dict()["arms"]
    wit_med = a["witness"]["median_t_eps"]
    uni_med = a["uniform"]["median_t_eps"]
    uni_failed = a["uniform"]["failed_runs"]
    wit_width = f["witness"]["median_final_width"]
    uni_width = f["uniform"]["median_final_width"]
    elapsed = t_affine + t_full
    ok = (
        wit_med is not None
        and 5 <= wit_med <= 9
        and uni_med == 10
        and uni_failed >= 15
        and wit_width <= 0.017
        and uni_width >= 2.0 * wit_width
        and elapsed < 1800.0
    )
    _report(
        7,
        ok,
        f"affine medians witness={wit_med} uniform={uni_med} "
        f"(failed {uni_failed}/51); full-support widths witness="
        f"{wit_width:.4f} uniform={uni_width:.4f}, {elapsed:.0f}s",
    )


def test_08_finite_shot_campaign(finiteshot_campaign):
    result, elapsed = finiteshot_campaign
    arms = result.summary_dict()["arms"]
    budgets = [int(round(x)) for x in np.logspace(3, 5, 11)]
    medians = [arms[f"Ns={b}"]["median_final_width"] for b in budgets]
    targets = {1000: 0.186, 10000: 0.060, 100000: 0.019}
    ok = True
    shown = []
    for budget, want in targets.items():
        got = arms[f"Ns={budget}"]["median_final_width"]
        shown.append(f"Ns={budget}:{got:.4f}")
        ok = ok and abs(got - want) <= 0.5 * want
    ok = ok and all(b < a for a, b in zip(medians, medians[1:]))
    for budget in budgets:
        stats = arms[f"Ns={budget}"]
        ok = ok and stats["contains_truth"] >= 50
        ok = ok and stats["infeasible_runs"] == 0
    ok = ok and elapsed < 1200.0
    _report(
        8,
        ok,
        f"finite-shot medians {' '.join(shown)} (targets 0.186/0.060/0.019, "
        f"+-50%), monotone over 11 budgets, containment >=50/51, "
        f"{elapsed:.0f}s",
    )


def test_09_uniform_policy_width_rate(uniform_rate_traces):
    n = 6
    t_max = 20
    rows = []
    for trace in uniform_rate_traces:
        by_round = {r.t: r.width for r in trace.rounds if r.status == "solved"}
        widths = []
        last = 1.0
        for t in range(1, t_max + 1):
            last = by_round.get(t, last)
            widths.append(last)
        rows.append(widths)
    mean = np.asarray(rows).mean(axis=0)
    worst_excess = max(
        mean[t - 1] - (2.0 * math.exp(-n * t / ((1 << n) - 1)) + 0.05)
        for t in range(1, t_max + 1)
    )
    ok = worst_excess <= 0.0
    _report(
        9,
        ok,
        f"{len(rows)} uniform-policy runs at n=6, worst mean-width excess "
        f"over 2*exp(-nt/(2^n-1))+0.05: {worst_excess:.4f}",
    )


def test_10_affine_support_structure(affine_structure_traces):
    outside, inside = affine_structure_traces
    ok = True
    details = []
    for trace in outside:
        n = trace.config.n
        r = trace.config.instance.r
        if not (
            abs(trace.final_lower) <= 1e-9 and abs(trace.final_upper) <= 1e-9
        ):
            ok = False
            details.append(f"outside r={r} terminal != (0,0)")
            continue
        v_bits = [
            Label.from_token(tok, n).bits
            for tok in trace.instance_meta["v_basis"]
        ]
        basis = XorBasis()
        cover_round = None
        zero_round = None
        for rec in trace.rounds:
            for token in rec.new_labels:
                bits = Label.from_token(token, n).bits
                if all((bits & v).bit_count() % 2 == 0 for v in v_bits):
                    basis.add(bits)
            if cover_round is None and basis.rank == n - r:
                cover_round = rec.t
            if zero_round is None and rec.width <= 1e-9:
                zero_round = rec.t
        if zero_round is None or (
            cover_round is not None and zero_round > cover_round
        ):
            ok = False
            details.append(
                f"outside r={r}: zero at {zero_round}, cover at {cover_round}"
            )
    for trace in inside:
        r = trace.config.instance.r
        want = 2.0**-r
        if not (
            abs(trace.final_lower - want) <= 1e-9
            and abs(trace.final_upper - want) <= 1e-9
        ):
            ok = False
            details.append(f"inside r={r} terminal != 2^-{r}")
    msg = "; ".join(details) if details else (
        f"{len(outside)} outside-support runs hit (0,0) by annihilator "
        f"coverage, {len(inside)} in-support runs pinned at 2^-r"
    )
    _report(10, ok, msg)
