"""End-to-end tests for the command-line interface."""

import json

import pytest

from stabcert.cli import main

RHO_EX_CONFIG = {
    "version": 1,
    "n": 3,
    "instance": {"kind": "rho_ex"},
    "policy": "witness",
    "epsilon": 0.0,
    "t_max": 10,
    "shots": "exact",
    "initial_gauge": "identity",
    "seed": 0,
    "assertions": "strict",
}

ENSEMBLE_CONFIG = {
    "version": 1,
    "trials": 3,
    "seed": 5,
    "base": {
        "n": 3,
        "instance": {"kind": "dirichlet"},
        "policy": "witness",
        "epsilon": 0.05,
        "t_max": 5,
        "shots": "exact",
        "initial_gauge": "identity",
        "seed": 0,
        "assertions": "strict",
    },
    "arms": [
        {"name": "witness", "policy": "witness", "shots": "exact"},
        {"name": "uniform", "policy": "uniform", "shots": "exact"},
    ],
}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_one_gauge_exact(tmp_path, capsys):
    inp = _write(tmp_path / "mu.json", {"mu": [0.5, 0.5, 0.5]})
    assert main(["one-gauge", inp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 3, "lower": 0.25, "upper": 0.75}


def test_one_gauge_with_confidence(tmp_path, capsys):
    inp = _write(
        tmp_path / "mu.json",
        {"mu": [0.958, 0.981, 0.969], "m": 11000 / 3, "delta": 0.001},
    )
    assert main(["one-gauge", inp]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["upper"] == pytest.approx(0.979, abs=5e-4)
    assert out["upper_conf"] == 1.0
    assert out["epsilon"] == pytest.approx(0.034, abs=5e-4)
    assert 0.0 <= out["lower_conf"] <= out["lower"]


def test_one_gauge_input_errors(tmp_path, capsys):
    bad_cases = [
        {"values": [0.5]},  # missing mu
        {"mu": [0.5], "m": 100},  # m without delta
        {"mu": [0.5], "m": 100, "delta": 0.05, "junk": 1},
        {"mu": [1.7]},
    ]
    for payload in bad_cases:
        inp = _write(tmp_path / "mu.json", payload)
        assert main(["one-gauge", inp]) == 2
        assert "stabcert:" in capsys.readouterr().err
    (tmp_path / "broken.json").write_text("{not json")
    assert main(["one-gauge", str(tmp_path / "broken.json")]) == 2


def test_certify_writes_outputs_and_reruns_identically(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", RHO_EX_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["certify", cfg, "--out", str(out_a)]) == 0
    line = capsys.readouterr().out
    assert "stop=width" in line and "t_eps=2" in line
    for name in ("config.echo", "trace.json", "rounds.csv"):
        assert (out_a / name).is_file()
    trace = json.loads((out_a / "trace.json").read_text())
    assert trace["final"]["L"] == pytest.approx(0.25, abs=1e-9)
    assert trace["final"]["U"] == pytest.approx(0.25, abs=1e-9)
    assert trace["stop_reason"] == "width"
    echoed = json.loads((out_a / "config.echo").read_text())
    assert echoed["seed"] == 0 and echoed["version"] == 1
    assert main(["certify", cfg, "--out", str(out_b)]) == 0
    for name in ("trace.json", "rounds.csv", "config.echo"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_certify_set_overrides(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", RHO_EX_CONFIG)
    out = tmp_path / "o"
    code = main(
        [
            "certify",
            cfg,
            "--out",
            str(out),
            "--set",
            "t_max=1",
            "--set",
            "epsilon=0.6",
        ]
    )
    assert code == 0
    capsys.readouterr()
    trace = json.loads((out / "trace.json").read_text())
    assert trace["config"]["t_max"] == 1
    assert trace["config"]["epsilon"] == 0.6
    assert len(trace["rounds"]) == 1
    echoed = json.loads((out / "config.echo").read_text())
    assert echoed["t_max"] == 1


def test_certify_rejects_bad_configs(tmp_path, capsys):
    out = str(tmp_path / "o")
    wrong_version = dict(RHO_EX_CONFIG, version=99)
    cfg = _write(tmp_path / "v.cfg", wrong_version)
    assert main(["certify", cfg, "--out", out]) == 2
    unknown_key = dict(RHO_EX_CONFIG, solvers="dense")
    cfg = _write(tmp_path / "k.cfg", unknown_key)
    assert main(["certify", cfg, "--out", out]) == 2
    no_seed = {k: v for k, v in RHO_EX_CONFIG.items() if k != "seed"}
    cfg = _write(tmp_path / "s.cfg", no_seed)
    assert main(["certify", cfg, "--out", out]) == 2
    bad_instance = dict(RHO_EX_CONFIG, instance={"kind": "rho_ex", "flavor": 3})
    cfg = _write(tmp_path / "i.cfg", bad_instance)
    assert main(["certify", cfg, "--out", out]) == 2
    for removed_key in ({"tiebreak": "solver-default"}, {"solver": "highs"}):
        cfg = _write(tmp_path / "t.cfg", dict(RHO_EX_CONFIG, **removed_key))
        assert main(["certify", cfg, "--out", out]) == 2
    capsys.readouterr()


def test_certify_rejects_non_finite_and_fractional_numbers(tmp_path, capsys):
    # Each must be a config error (exit 2): not an OverflowError traceback
    # (inf), a silently truncated budget (1000.9) or a run that can never
    # stop on width (NaN).
    cfg = _write(tmp_path / "c.cfg", RHO_EX_CONFIG)
    out = str(tmp_path / "o")
    for override, message in (
        ("shots=finite:Ns=inf,delta=0.05,Tmax=10", "Ns must be a finite whole number"),
        ("shots=finite:Ns=1000.9,delta=0.05,Tmax=10", "Ns must be a finite whole number"),
        ("epsilon=NaN", "epsilon must be finite"),
        ("t_max=Infinity", "invalid run config"),
    ):
        assert main(["certify", cfg, "--out", out, "--set", override]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fine_happy_path(tmp_path, capsys):
    cfg = _write(tmp_path / "f.cfg", dict(RHO_EX_CONFIG, policy="fine"))
    out = tmp_path / "o"
    assert main(["certify", cfg, "--out", str(out)]) == 0
    assert "t_eps=3" in capsys.readouterr().out
    trace = json.loads((out / "trace.json").read_text())
    assert trace["rounds"][0]["kind"] == "gauge"
    assert all(r["kind"] == "label" for r in trace["rounds"][1:])


def test_certify_reports_infeasible_with_exit_3(tmp_path, capsys, monkeypatch):
    # Infeasibility cannot arise from faithfully measured data, so stub the
    # runner to exercise the exit-code path.
    import stabcert.cli as cli_mod

    real = cli_mod.run_adaptive

    def fake(cfg):
        trace = real(cfg)
        trace.stop_reason = "infeasible"
        return trace

    monkeypatch.setattr(cli_mod, "run_adaptive", fake)
    cfg = _write(tmp_path / "run.cfg", RHO_EX_CONFIG)
    assert main(["certify", cfg, "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_solver_failure_exits_with_5(tmp_path, capsys, monkeypatch):
    # Finite shots put bands in the LP, so every solve runs on HiGHS.
    import stabcert.polytope as polytope_mod

    def broken(self, cset):
        raise polytope_mod.SolverError("HiGHS ended with Unknown")

    monkeypatch.setattr(polytope_mod.HighsModel, "solve", broken)
    shots = "finite:Ns=1000,delta=0.05,Tmax=10"
    cfg = _write(tmp_path / "run.cfg", dict(RHO_EX_CONFIG, shots=shots))
    assert main(["certify", cfg, "--out", str(tmp_path / "o")]) == 5
    assert "stabcert: solver failed: HiGHS ended with Unknown" in capsys.readouterr().err
    arms = [dict(arm, shots=shots) for arm in ENSEMBLE_CONFIG["arms"]]
    cfg = _write(tmp_path / "ens.cfg", dict(ENSEMBLE_CONFIG, arms=arms))
    out = tmp_path / "e"
    assert main(["ensemble", cfg, "--out", str(out), "--threads", "1"]) == 5
    assert "stabcert: solver failed: HiGHS ended with Unknown" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not out.exists()


def test_ensemble_outputs_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path / "ens.cfg", ENSEMBLE_CONFIG)
    out = tmp_path / "o"
    assert main(["ensemble", cfg, "--out", str(out), "--threads", "1"]) == 0
    printed = capsys.readouterr().out
    assert "witness:" in printed and "uniform:" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 3
    assert set(summary["arms"]) == {"witness", "uniform"}
    header = (out / "rounds.csv").read_text().splitlines()[0]
    assert header == "trial,policy,t,L,U,W,m_t,D_t,new_labels"
    echoed = json.loads((out / "config.echo").read_text())
    assert echoed["trials"] == 3


def test_ensemble_with_a_fine_arm(tmp_path, capsys):
    ens = dict(
        ENSEMBLE_CONFIG,
        arms=[
            {"name": "witness", "policy": "witness", "shots": "exact"},
            {"name": "fine", "policy": "fine", "shots": "exact"},
        ],
    )
    cfg = _write(tmp_path / "ens.cfg", ens)
    out = tmp_path / "o"
    assert main(["ensemble", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert "fine:" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["arms"]["fine"]["contains_truth"] == 3
    rows = (out / "rounds.csv").read_text().splitlines()[1:]
    fine_rounds = [r.split(",") for r in rows if r.split(",")[1] == "fine"]
    # Each fine trial starts with its initial gauge at t=0.
    assert sum(1 for r in fine_rounds if r[2] == "0") == 3


def test_ensemble_set_override_and_key_checks(tmp_path, capsys):
    cfg = _write(tmp_path / "ens.cfg", ENSEMBLE_CONFIG)
    out = tmp_path / "o"
    code = main(
        ["ensemble", cfg, "--out", str(out), "--threads", "1", "--set", "trials=2"]
    )
    assert code == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 2
    bad = dict(ENSEMBLE_CONFIG, extra_field=1)
    cfg = _write(tmp_path / "bad.cfg", bad)
    assert main(["ensemble", cfg, "--out", str(out)]) == 2
    bad_arm = json.loads(json.dumps(ENSEMBLE_CONFIG))
    bad_arm["arms"][0]["weight"] = 2
    cfg = _write(tmp_path / "arm.cfg", bad_arm)
    assert main(["ensemble", cfg, "--out", str(out)]) == 2
    capsys.readouterr()


def test_ensemble_thread_count_is_cosmetic(tmp_path, capsys):
    cfg = _write(tmp_path / "ens.cfg", ENSEMBLE_CONFIG)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["ensemble", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["ensemble", cfg, "--out", str(out2), "--threads", "2"]) == 0
    capsys.readouterr()
    for name in ("summary.json", "rounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_selftest_subcommand(capsys):
    assert main(["selftest", "--scale", "0.1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 5
    assert "FAIL" not in out


def test_override_parsing_errors(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", RHO_EX_CONFIG)
    out = str(tmp_path / "o")
    assert main(["certify", cfg, "--out", out, "--set", "t_max"]) == 2
    assert main(["certify", cfg, "--out", out, "--set", "a.b.c=1"]) == 2
    capsys.readouterr()
