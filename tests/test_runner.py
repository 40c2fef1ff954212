"""Unit tests for the adaptive loop and the ensemble harness."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from stabcert import polytope
from stabcert.gf2 import Label, XorBasis, rank
from stabcert.policy import PolicyChoice
from stabcert.polytope import (
    ConstraintSet,
    EndpointResult,
    HighsModel,
    add_band,
    solve_endpoints,
)
from stabcert.runner import (
    ArmSpec,
    EnsembleConfig,
    InstanceSpec,
    InvariantViolation,
    RunConfig,
    run_adaptive,
    run_ensemble,
)
from stabcert.shots import ShotModel
from stabcert.syndrome import SyndromeDistribution


def _cfg(**kw):
    base = dict(
        n=3,
        instance=InstanceSpec(kind="rho_ex"),
        policy=PolicyChoice("witness"),
        epsilon=0.0,
        t_max=10,
        seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


def test_worked_example_adaptive_run():
    # Identity start certifies [1/4, 3/4]; the witness gauge then pins the
    # fidelity exactly in the second round.
    trace = run_adaptive(_cfg())
    assert trace.true_fidelity == pytest.approx(0.25)
    assert trace.rounds[0].lower == pytest.approx(0.25, abs=1e-9)
    assert trace.rounds[0].upper == pytest.approx(0.75, abs=1e-9)
    assert trace.stop_reason == "width"
    assert trace.t_eps == 2
    assert trace.final_lower == pytest.approx(0.25, abs=1e-9)
    assert trace.final_upper == pytest.approx(0.25, abs=1e-9)
    assert not trace.failed
    assert trace.contains_truth()
    assert trace.violation_count() == 0


def test_worked_example_fine_grained_run():
    cfg = _cfg(policy=PolicyChoice("fine"), t_max=8)
    trace = run_adaptive(cfg)
    assert trace.rounds[0].kind == "gauge"
    assert all(r.kind == "label" for r in trace.rounds[1:])
    assert all(len(r.new_labels) == 1 for r in trace.rounds[1:])
    assert trace.stop_reason == "width"
    assert trace.t_eps == 3
    assert trace.final_width == pytest.approx(0.0, abs=1e-9)
    assert trace.final_lower == pytest.approx(0.25, abs=1e-9)


def test_full_coverage_completeness_small_n():
    for n, seed in ((3, 11), (4, 12)):
        cfg = _cfg(
            n=n,
            instance=InstanceSpec(kind="dirichlet"),
            t_max=40,
            seed=seed,
        )
        trace = run_adaptive(cfg)
        assert trace.final_width <= 1e-9
        assert trace.final_lower == pytest.approx(trace.true_fidelity, abs=1e-7)


def test_runs_are_deterministic():
    cfg = _cfg(
        n=4,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("uniform"),
        epsilon=0.05,
        seed=3,
    )
    a = run_adaptive(cfg).to_json_dict()
    b = run_adaptive(cfg).to_json_dict()
    assert a == b


def test_instance_seed_is_separate_from_run_seed():
    # Two policies on the same seed must see the same underlying state.
    base = dict(
        n=4,
        instance=InstanceSpec(kind="dirichlet"),
        epsilon=0.0,
        t_max=3,
        seed=9,
    )
    wit = run_adaptive(RunConfig(policy=PolicyChoice("witness"), **base))
    uni = run_adaptive(RunConfig(policy=PolicyChoice("uniform"), **base))
    assert wit.true_fidelity == uni.true_fidelity


def test_affine_terminal_values():
    # In-support offset: terminal interval pinned at 2^-r; out-of-support:
    # pinned at zero once the certificates rule the coset out.
    for r, s0, want in ((2, "zero", 0.25), (2, "outside_support", 0.0)):
        cfg = _cfg(
            n=5,
            instance=InstanceSpec(kind="affine", r=r, s0=s0),
            t_max=20,
            seed=21,
        )
        trace = run_adaptive(cfg)
        assert trace.final_lower == pytest.approx(want, abs=1e-9)
        assert trace.final_upper == pytest.approx(want, abs=1e-9)
        assert set(trace.instance_meta) == {"v_basis", "s0"}
        assert len(trace.instance_meta["v_basis"]) == r


def test_cap_stop_and_failed_flag():
    cfg = _cfg(
        n=4,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("uniform"),
        epsilon=1e-6,
        t_max=1,
        seed=5,
    )
    trace = run_adaptive(cfg)
    assert trace.stop_reason == "cap"
    assert trace.t_eps is None
    assert trace.failed


def test_finite_shot_run_bands_and_accounting():
    shots = ShotModel.parse("finite:Ns=2000,delta=0.05,Tmax=6")
    cfg = _cfg(
        n=4,
        instance=InstanceSpec(kind="sparse", fidelity=0.7, k_errors=3),
        epsilon=0.0,
        t_max=6,
        shots=shots,
        seed=13,
    )
    trace = run_adaptive(cfg)
    assert trace.eta == pytest.approx(shots.eta(4))
    queried = sum(len(r.new_labels) for r in trace.rounds)
    assert trace.total_shots == 2000 * queried
    assert trace.contains_truth()
    assert trace.violation_count() == 0
    # With bands the interval can no longer collapse to a point.
    assert trace.final_width > 0.0


def test_clipped_highs_witness_is_renormalized():
    # HiGHS returns slightly negative coordinates here; clipping them to
    # zero pushes the witness sum past the 1e-9 tolerance, which used to
    # escape as a bare ValueError from SyndromeDistribution.
    cfg = _cfg(
        n=10,
        instance=InstanceSpec("affine", r=4, s0="zero"),
        policy=PolicyChoice("uniform"),
        epsilon=0.01,
        t_max=40,
        seed=1,
    )
    trace = run_adaptive(cfg)
    assert trace.stop_reason == "width"
    assert trace.contains_truth()
    assert trace.violation_count() == 0


def test_monotonicity_violation_detection(monkeypatch):
    # Stub the solver so the certified interval widens between rounds;
    # strict mode must raise and record mode must log the violation.
    import stabcert.runner as runner_mod

    results = iter(
        [
            EndpointResult(
                0.3,
                0.6,
                SyndromeDistribution(2, [0.3, 0.7, 0.0, 0.0]),
                SyndromeDistribution(2, [0.6, 0.4, 0.0, 0.0]),
                "solved",
                "dense",
            ),
            EndpointResult(
                0.2,
                0.7,
                SyndromeDistribution(2, [0.2, 0.8, 0.0, 0.0]),
                SyndromeDistribution(2, [0.7, 0.3, 0.0, 0.0]),
                "solved",
                "dense",
            ),
        ]
    )
    monkeypatch.setattr(
        runner_mod, "solve_endpoints", lambda cset, **kw: next(results)
    )
    cfg = _cfg(
        n=2,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("uniform"),
        t_max=2,
        seed=1,
        assertions="strict",
    )
    with pytest.raises(InvariantViolation):
        run_adaptive(cfg)


@pytest.mark.parametrize("policy", ["witness", "fine"])
def test_infeasible_round_ends_the_run(monkeypatch, policy):
    # Faithful data is never infeasible, so stub the second solve.
    import stabcert.runner as runner_mod

    real = runner_mod.solve_endpoints
    calls = []

    def solve(cset, **kw):
        calls.append(len(cset))
        if len(calls) == 2:
            return EndpointResult(0.0, 0.0, None, None, "infeasible", "dense")
        return real(cset, **kw)

    monkeypatch.setattr(runner_mod, "solve_endpoints", solve)
    cfg = _cfg(
        n=4, instance=InstanceSpec(kind="dirichlet"), policy=PolicyChoice(policy)
    )
    trace = run_adaptive(cfg)
    assert trace.stop_reason == "infeasible" and trace.t_eps is None
    assert len(trace.rounds) == 2
    last = trace.rounds[-1]
    assert last.status == "infeasible" and last.new_labels
    values = (last.lower, last.upper, last.width, last.d_total, last.d_max)
    assert all(math.isnan(v) for v in values)
    assert last.m_unqueried == 15 - calls[-1]


def test_violations_recorded_in_record_mode(monkeypatch):
    import stabcert.runner as runner_mod

    results = iter(
        [
            EndpointResult(
                0.3,
                0.6,
                SyndromeDistribution(2, [0.3, 0.7, 0.0, 0.0]),
                SyndromeDistribution(2, [0.6, 0.4, 0.0, 0.0]),
                "solved",
                "dense",
            ),
            EndpointResult(
                0.2,
                0.7,
                SyndromeDistribution(2, [0.2, 0.8, 0.0, 0.0]),
                SyndromeDistribution(2, [0.7, 0.3, 0.0, 0.0]),
                "solved",
                "dense",
            ),
        ]
    )
    monkeypatch.setattr(
        runner_mod, "solve_endpoints", lambda cset, **kw: next(results)
    )
    cfg = _cfg(
        n=2,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("uniform"),
        t_max=2,
        seed=1,
        assertions="record",
    )
    trace = run_adaptive(cfg)
    assert trace.violation_count() >= 1
    assert any("regressed" in v for r in trace.rounds for v in r.violations)


def test_run_config_json_roundtrip():
    cfg = _cfg(
        n=6,
        instance=InstanceSpec(kind="affine", r=3, s0="in_support"),
        policy=PolicyChoice("mixed", 0.25),
        epsilon=0.01,
        t_max=4,
        shots=ShotModel.parse("finite:Ns=500,delta=0.1,Tmax=4"),
        initial_gauge=("u1", "u2", "u4", "u8", "u10", "u20"),
    )
    again = RunConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg


def test_run_config_validation():
    for epsilon in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            _cfg(epsilon=epsilon)
    with pytest.raises(ValueError):
        _cfg(t_max=0)
    with pytest.raises(ValueError):
        _cfg(assertions="loose")
    with pytest.raises(ValueError):
        InstanceSpec(kind="affine")  # needs r
    with pytest.raises(ValueError):
        InstanceSpec(kind="sparse", fidelity=0.5)  # needs k_errors
    with pytest.raises(ValueError):
        InstanceSpec(kind="fourier")


def test_config_parsers_reject_unknown_keys():
    data = _cfg().to_json_dict()
    assert RunConfig.from_json_dict(dict(data, version=1)) == _cfg()
    with pytest.raises(ValueError, match="solvr"):
        RunConfig.from_json_dict(dict(data, solvr="dense"))
    with pytest.raises(ValueError, match="tiebreak"):
        RunConfig.from_json_dict(dict(data, tiebreak="lexicographic"))
    with pytest.raises(ValueError, match="solver"):
        RunConfig.from_json_dict(dict(data, solver="highs"))
    with pytest.raises(ValueError, match="radius"):
        RunConfig.from_json_dict(
            dict(data, instance={"kind": "rho_ex", "radius": 1})
        )
    ens = _small_ensemble().to_json_dict()
    assert EnsembleConfig.from_json_dict(dict(ens, version=1)) == _small_ensemble()
    with pytest.raises(ValueError, match="trails"):
        EnsembleConfig.from_json_dict(dict(ens, trails=3))
    with pytest.raises(ValueError, match="version"):
        EnsembleConfig.from_json_dict(dict(ens, base=dict(ens["base"], version=1)))
    with pytest.raises(ValueError, match="weight"):
        EnsembleConfig.from_json_dict(
            dict(ens, arms=[dict(ens["arms"][0], weight=2)])
        )


def test_shipped_configs_load():
    from importlib.resources import files

    for cfg in files("stabcert").joinpath("configs").iterdir():
        if cfg.name.endswith(".cfg"):
            ens = EnsembleConfig.from_json_dict(json.loads(cfg.read_text()))
            assert ens.trials >= 1


def test_shot_budget_must_cover_the_labels_a_run_can_query():
    shots = ShotModel.parse("finite:Ns=1000,delta=0.05,Tmax=8")
    _cfg(n=8, instance=InstanceSpec(kind="dirichlet"), t_max=8, shots=shots)
    with pytest.raises(ValueError, match="Tmax"):
        _cfg(n=8, instance=InstanceSpec(kind="dirichlet"), t_max=9, shots=shots)
    # A fine-grained run queries the initial gauge plus one label per round.
    _cfg(
        n=8,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("fine"),
        t_max=56,
        shots=shots,
    )
    with pytest.raises(ValueError, match="Tmax"):
        _cfg(
            n=8,
            instance=InstanceSpec(kind="dirichlet"),
            policy=PolicyChoice("fine"),
            t_max=57,
            shots=shots,
        )
    # Ensemble arms are checked when the ensemble is built.
    with pytest.raises(ValueError, match="Tmax"):
        EnsembleConfig(
            trials=1,
            base=_cfg(t_max=9),
            arms=(ArmSpec("few", PolicyChoice("witness"), shots),),
        )


def test_explicit_instance_and_custom_initial_gauge():
    probs = (0.5, 0.25, 0.25, 0.0)
    cfg = _cfg(
        n=2,
        instance=InstanceSpec(kind="explicit", probs=probs),
        initial_gauge=("u3", "u1"),
        t_max=4,
    )
    trace = run_adaptive(cfg)
    assert trace.true_fidelity == pytest.approx(0.5)
    assert trace.rounds[0].queried == ["u3", "u1"]
    assert trace.final_lower == pytest.approx(0.5, abs=1e-9)


def _small_ensemble(trials=4, **base_kw):
    base = dict(
        n=3,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("witness"),
        epsilon=0.05,
        t_max=6,
        seed=0,
    )
    base.update(base_kw)
    return EnsembleConfig(
        trials=trials,
        base=RunConfig(**base),
        arms=(
            ArmSpec("witness", PolicyChoice("witness")),
            ArmSpec("uniform", PolicyChoice("uniform")),
        ),
        seed=77,
    )


def test_ensemble_pairs_instances_across_arms():
    result = run_ensemble(_small_ensemble())
    wit = result.traces["witness"]
    uni = result.traces["uniform"]
    assert len(wit) == len(uni) == 4
    for a, b in zip(wit, uni):
        assert a.true_fidelity == b.true_fidelity


def test_ensemble_thread_count_does_not_change_results():
    ens = _small_ensemble()
    serial = run_ensemble(ens, threads=1)
    parallel = run_ensemble(ens, threads=2)
    assert serial.summary_dict() == parallel.summary_dict()
    assert serial.rounds_rows() == parallel.rounds_rows()


def test_ensemble_summary_fields():
    result = run_ensemble(_small_ensemble())
    summary = result.summary_dict()
    assert summary["trials"] == 4
    assert set(summary["arms"]) == {"witness", "uniform"}
    stats = summary["arms"]["witness"]
    assert stats["trials"] == 4
    assert stats["contains_truth"] == 4
    assert stats["violations"] == 0
    assert stats["infeasible_runs"] == 0
    assert len(stats["median_width_per_round"]) == 6
    assert len(stats["iqr_width_per_round"]) == 6
    assert stats["t_eps_reached"] + stats["failed_runs"] == 4
    # Carried-forward widths are nonincreasing round over round.
    med = stats["median_width_per_round"]
    assert all(b <= a + 1e-12 for a, b in zip(med, med[1:]))


def test_ensemble_with_a_fine_arm_runs_to_completion():
    ens = EnsembleConfig(
        trials=2,
        base=RunConfig(
            n=4,
            instance=InstanceSpec(kind="dirichlet"),
            policy=PolicyChoice("witness"),
            epsilon=0.01,
            t_max=6,
        ),
        arms=(
            ArmSpec("witness", PolicyChoice("witness")),
            ArmSpec("fine", PolicyChoice("fine")),
        ),
        seed=5,
    )
    result = run_ensemble(ens)
    for trace in result.traces["fine"]:
        assert trace.rounds[0].t == 0 and trace.rounds[0].kind == "gauge"
        assert all(r.kind == "label" for r in trace.rounds[1:])
        assert trace.contains_truth()
    for wit, fine in zip(result.traces["witness"], result.traces["fine"]):
        assert wit.true_fidelity == fine.true_fidelity
    stats = result.summary_dict()["arms"]["fine"]
    assert stats["trials"] == 2 and stats["contains_truth"] == 2
    assert len(stats["median_width_per_round"]) == 6


def _close(got, want, path="trace"):
    """Equal structure, strings and ints; floats within 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        close = math.isclose(got, want, rel_tol=0, abs_tol=1e-12)
        both_nan = math.isnan(got) and math.isnan(want)
        assert close or both_nan, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_run_adaptive_matches_recorded_traces():
    # Full traces of witness, uniform, mixed:0.5 and fine runs at n <= 5,
    # exact and finite-shot, recorded with the earlier implementation that
    # ran the fine policy in a loop of its own (run_fine_grained).  The n=5
    # affine fine run on HiGHS was re-recorded when the HiGHS engine became
    # one model per sense: HiGHS returns another optimal vertex there, which
    # changes the labels the run picks.  The finite-shot runs (now on HiGHS)
    # and the two affine runs (now dense) were re-recorded when the backend
    # came to be picked from the constraint set.
    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_traces.json").read_text()
    )
    assert {g["config"]["policy"] for g in golden} == {
        "witness",
        "uniform",
        "mixed:0.5",
        "fine",
    }
    assert {g["stop_reason"] for g in golden} == {"width", "cap", "coverage"}
    backends = set()
    for want in golden:
        trace = run_adaptive(RunConfig.from_json_dict(want["config"]))
        _close(json.loads(json.dumps(trace.to_json_dict())), want)
        backends |= _check_rounds_on_the_other_backend(want)
    assert backends == {"dense", "highs"}


def _check_rounds_on_the_other_backend(trace: dict) -> set[str]:
    """Every round's [L, U] equals a cold solve of its constraints on the
    backend the run did not use; returns the backends the run used."""
    n = trace["config"]["n"]
    cset = ConstraintSet.empty(n)
    used = set()
    for record in trace["rounds"]:
        for token, mu in record["measured"].items():
            bits = Label.from_token(token, n).bits
            if trace["eta"] > 0:
                cset = add_band(cset, bits, mu, trace["eta"])
            else:
                cset = cset.with_exact(bits, mu)
        backend = solve_endpoints(cset).solver
        used.add(backend)
        if backend == "dense":
            other = polytope._endpoints_highs(cset, HighsModel(n))
        else:
            other = polytope._endpoints(cset, polytope._solve_dense, "dense")
        assert record["L"] == pytest.approx(other.lower, abs=1e-9)
        assert record["U"] == pytest.approx(other.upper, abs=1e-9)
    return used


def test_ensemble_rounds_rows_shape():
    result = run_ensemble(_small_ensemble(trials=2))
    rows = result.rounds_rows()
    assert {row["policy"] for row in rows} == {"witness", "uniform"}
    assert {row["trial"] for row in rows} == {0, 1}
    for row in rows:
        assert row["W"] == pytest.approx(row["U"] - row["L"], abs=1e-12)


def test_ensemble_config_validation_and_roundtrip():
    ens = _small_ensemble()
    again = EnsembleConfig.from_json_dict(ens.to_json_dict())
    assert again == ens
    with pytest.raises(ValueError):
        EnsembleConfig(trials=0, base=ens.base, arms=ens.arms)
    with pytest.raises(ValueError):
        EnsembleConfig(trials=2, base=ens.base, arms=())
    with pytest.raises(ValueError):
        EnsembleConfig(
            trials=2,
            base=ens.base,
            arms=(ens.arms[0], ens.arms[0]),
        )


def test_witness_policy_covers_annihilator_on_affine_instances():
    # The stopping round can come no later than the first round whose
    # queried set spans the annihilator of the support subspace.
    cfg = _cfg(
        n=6,
        instance=InstanceSpec(kind="affine", r=2, s0="outside_support"),
        t_max=16,
        seed=33,
    )
    trace = run_adaptive(cfg)
    assert trace.final_lower == pytest.approx(0.0, abs=1e-9)
    assert trace.final_upper == pytest.approx(0.0, abs=1e-9)
    v_bits = [Label.from_token(t, 6).bits for t in trace.instance_meta["v_basis"]]
    basis = XorBasis()
    cover_round = None
    zero_round = None
    for r in trace.rounds:
        for token in r.new_labels:
            bits = Label.from_token(token, 6).bits
            if all((bits & v).bit_count() % 2 == 0 for v in v_bits):
                basis.add(bits)
        if cover_round is None and basis.rank == 6 - 2:
            cover_round = r.t
        if zero_round is None and r.width <= 1e-9:
            zero_round = r.t
    assert zero_round is not None
    # The run may stop before a full annihilator basis is ever queried;
    # when coverage does happen, the zero interval must not lag it.
    if cover_round is not None:
        assert zero_round <= cover_round
