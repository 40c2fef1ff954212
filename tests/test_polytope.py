"""Unit tests for the feasible-polytope endpoint solver."""

import json

import numpy as np
import pytest

from stabcert import polytope
from stabcert.gf2 import Label, sample_uniform_gauge
from stabcert.policy import PolicyChoice
from stabcert.polytope import (
    ConstraintSet,
    HighsModel,
    SolverError,
    add_band,
    build_exact_constraints,
    solve_endpoints,
)
from stabcert.runner import InstanceSpec, RunConfig, run_adaptive
from stabcert.selftest import brute_force_endpoints, _random_constraints
from stabcert.syndrome import (
    AffineSupportSpec,
    make_affine_support,
    sample_dirichlet_uniform,
    sample_subspace_basis,
    walsh,
)


def test_constraint_set_rejects_zero_and_out_of_range():
    with pytest.raises(ValueError):
        ConstraintSet(2, {0: (0.5, 0.5)})
    with pytest.raises(ValueError):
        ConstraintSet(2, {4: (0.5, 0.5)})
    cset = ConstraintSet.empty(2)
    assert len(cset) == 0
    with pytest.raises(ValueError):
        cset.with_exact(1, 1.5)
    with pytest.raises(ValueError):
        cset.with_exact(0, 0.5)
    with pytest.raises(ValueError):
        add_band(cset, 1 << 2, 0.5, 0.1)


def test_constraint_intersection_never_loosens():
    cset = ConstraintSet.empty(3)
    cset = add_band(cset, 5, 0.2, 0.3)
    assert cset.entries[5] == pytest.approx((-0.1, 0.5))
    assert cset.kind(5) == "band"
    tightened = add_band(cset, 5, 0.25, 0.1)
    assert tightened.entries[5] == pytest.approx((0.15, 0.35))
    pinned = tightened.with_exact(5, 0.2)
    assert pinned.entries[5] == (0.2, 0.2)
    assert pinned.kind(5) == "exact"
    # Disjoint bands leave an empty intersection, flagged not raised.
    clash = add_band(pinned, 5, 0.9, 0.05)
    assert clash.has_empty_band()


def test_band_values_are_clipped_to_unit_range():
    cset = add_band(ConstraintSet.empty(2), 1, 0.95, 0.2)
    lo, hi = cset.entries[1]
    assert hi == 1.0 and lo == pytest.approx(0.75)


def test_build_exact_constraints_reads_the_spectrum():
    rng = np.random.default_rng(0)
    p = sample_dirichlet_uniform(3, rng)
    labels = [Label(3, 3), Label(3, 6)]
    cset = build_exact_constraints(p, labels)
    spec = walsh(p)
    for lab in labels:
        lo, hi = cset.entries[lab.bits]
        assert lo == hi == pytest.approx(spec.value(lab), abs=1e-15)
    assert cset.labels() == sorted(labels, key=lambda la: la.bits)


def test_endpoints_against_vertex_enumeration():
    # Full vertex enumeration of the slack-augmented system is an
    # independent oracle for both endpoints at small n.
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 4))
        _, cset = _random_constraints(n, rng, allow_bands=True)
        oracle = brute_force_endpoints(cset)
        result = solve_endpoints(cset)
        if oracle is None:
            assert result.status == "infeasible"
            continue
        assert result.status == "solved"
        assert result.lower == pytest.approx(oracle[0], abs=1e-7)
        assert result.upper == pytest.approx(oracle[1], abs=1e-7)
        checked += 1


def test_dense_and_highs_backends_agree():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        p = sample_dirichlet_uniform(n, rng)
        q = int(rng.integers(1, (1 << n) - 1))
        picks = rng.choice((1 << n) - 1, size=q, replace=False) + 1
        cset = build_exact_constraints(p, [Label(n, int(b)) for b in picks])
        dense = solve_endpoints(cset, solver="dense")
        highs = solve_endpoints(cset, solver="highs")
        assert dense.lower == pytest.approx(highs.lower, abs=1e-9)
        assert dense.upper == pytest.approx(highs.upper, abs=1e-9)


def test_dense_and_highs_agree_on_degenerate_affine_sets():
    # Affine-support states give highly degenerate vertices (many zero
    # coordinates); these exercised the anti-cycling and refactorization
    # paths of the dense solver.
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 6
        r = int(rng.integers(1, 4))
        v_basis = sample_subspace_basis(n, r, rng)
        p = make_affine_support(AffineSupportSpec(n, Label(n, 0), v_basis))
        q = int(rng.integers(4, 20))
        picks = rng.choice((1 << n) - 1, size=q, replace=False) + 1
        cset = build_exact_constraints(p, [Label(n, int(b)) for b in picks])
        dense = solve_endpoints(cset, solver="dense")
        highs = solve_endpoints(cset, solver="highs")
        assert dense.lower == pytest.approx(highs.lower, abs=1e-9)
        assert dense.upper == pytest.approx(highs.upper, abs=1e-9)


def test_witnesses_are_feasible_and_attain_endpoints():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        _, cset = _random_constraints(n, rng, allow_bands=True)
        result = solve_endpoints(cset)
        if result.status != "solved":
            continue
        for witness, value in (
            (result.witness_lo, result.lower),
            (result.witness_hi, result.upper),
        ):
            assert witness.fidelity() == pytest.approx(value, abs=1e-9)
            spec = walsh(witness)
            for bits, (lo, hi) in cset.entries.items():
                assert lo - 1e-9 <= spec.value(bits) <= hi + 1e-9


def test_no_constraints_gives_trivial_interval():
    result = solve_endpoints(ConstraintSet.empty(3))
    assert result.lower == pytest.approx(0.0, abs=1e-9)
    assert result.upper == pytest.approx(1.0, abs=1e-9)


def test_full_coverage_pins_the_fidelity():
    rng = np.random.default_rng(5)
    p = sample_dirichlet_uniform(4, rng)
    labels = [Label(4, b) for b in range(1, 16)]
    result = solve_endpoints(build_exact_constraints(p, labels))
    assert result.lower == pytest.approx(p.fidelity(), abs=1e-9)
    assert result.upper == pytest.approx(p.fidelity(), abs=1e-9)


def test_infeasible_constraint_sets_are_reported():
    # mu(1) = mu(2) = 1 pins all mass on syndrome 0, whose coefficient at
    # label 3 is +1; demanding mu(3) = -1 on top is impossible.
    cset = ConstraintSet(2, {1: (1.0, 1.0), 2: (1.0, 1.0), 3: (-1.0, -1.0)})
    for backend in ("dense", "highs"):
        result = solve_endpoints(cset, solver=backend)
        assert result.status == "infeasible"
    empty = add_band(add_band(ConstraintSet.empty(2), 1, 0.8, 0.05), 1, 0.2, 0.05)
    assert empty.has_empty_band()
    assert solve_endpoints(empty).status == "infeasible"


def test_solver_argument_validation():
    cset = ConstraintSet.empty(2)
    with pytest.raises(ValueError):
        solve_endpoints(cset, solver="simplex2000")


def test_constraint_set_json_roundtrip():
    cset = add_band(ConstraintSet.empty(3), 5, 0.3, 0.1).with_exact(2, -0.25)
    again = ConstraintSet.from_json_dict(cset.to_json_dict())
    assert again.n == cset.n
    assert again.entries == cset.entries


def test_endpoint_result_serialization():
    cset = ConstraintSet(2, {1: (0.5, 0.5)})
    result = solve_endpoints(cset)
    out = result.to_json_dict(include_witnesses=True)
    assert out["status"] == "solved"
    assert out["L"] == pytest.approx(result.lower)
    assert out["U"] == pytest.approx(result.upper)
    assert out["width"] == pytest.approx(result.width)
    assert len(out["witnesses"]["lo"]["probs"]) == 4


def _label_steps(n, rng, with_bands):
    """Constraint sets a run could grow through: one new label per step,
    exact or a band around the truth, with some bands tightened by a repeat."""
    spectrum = walsh(sample_dirichlet_uniform(n, rng))
    order = [int(b) for b in rng.permutation((1 << n) - 1) + 1]
    cset = ConstraintSet.empty(n)
    steps = []
    for bits in order[: int(rng.integers(1, len(order) + 1))]:
        mu = spectrum.value(bits)
        if with_bands and rng.random() < 0.6:
            eta = float(rng.uniform(0.02, 0.4))
            cset = add_band(cset, bits, mu + float(rng.uniform(-eta, eta)), eta)
            steps.append(cset)
            if rng.random() < 0.5:
                eta /= 2
                cset = add_band(cset, bits, mu + float(rng.uniform(-eta, eta)), eta)
                steps.append(cset)
        else:
            cset = cset.with_exact(bits, mu)
            steps.append(cset)
    return steps


def test_warm_engine_matches_fresh_solves_and_the_oracle():
    rng = np.random.default_rng(7)
    solves = 0
    for case in range(24):
        n = int(rng.integers(2, 6))
        # At n = 4 and 5 every other case is exact-only.
        with_bands = n <= 3 or case % 2 == 0
        engine = HighsModel(n)
        for cset in _label_steps(n, rng, with_bands):
            warm = solve_endpoints(cset, solver="highs", engine=engine)
            cold = solve_endpoints(cset, solver="highs")
            assert warm.status == cold.status == "solved"
            assert warm.solver == "highs"
            assert warm.lower == pytest.approx(cold.lower, abs=1e-9)
            assert warm.upper == pytest.approx(cold.upper, abs=1e-9)
            # Enumerating bases of the slack-augmented system is affordable
            # for bands up to n = 3 and for exact rows up to n = 4.
            if n <= 3 or (n == 4 and not with_bands):
                oracle = brute_force_endpoints(cset)
                assert warm.lower == pytest.approx(oracle[0], abs=1e-9)
                assert warm.upper == pytest.approx(oracle[1], abs=1e-9)
            solves += 1
        assert engine.warm
    assert solves > 100


def test_tightened_band_changes_the_row_in_place():
    rng = np.random.default_rng(8)
    spec = walsh(sample_dirichlet_uniform(3, rng))
    cset = ConstraintSet.empty(3)
    for bits in range(1, 8):
        cset = add_band(cset, bits, spec.value(bits), 0.3)
    engine = HighsModel(3)
    last = solve_endpoints(cset, solver="highs", engine=engine)
    rows = engine._highs.getNumRow()
    for eta in (0.1, 0.0):
        cset = add_band(cset, 5, spec.value(5), eta)
        warm = solve_endpoints(cset, solver="highs", engine=engine)
        cold = solve_endpoints(cset, solver="highs")
        assert engine._highs.getNumRow() == rows
        assert warm.solver == "highs"
        assert warm.lower == pytest.approx(cold.lower, abs=1e-9)
        assert warm.upper == pytest.approx(cold.upper, abs=1e-9)
        assert warm.width < last.width - 1e-6  # the tighter row is active
        last = warm
    assert cset.kind(5) == "exact"


def test_warm_engine_reports_infeasible_and_empty_bands():
    engine = HighsModel(2)
    base = ConstraintSet(2, {1: (1.0, 1.0), 2: (1.0, 1.0)})
    assert solve_endpoints(base, solver="highs", engine=engine).status == "solved"
    clash = base.with_exact(3, -1.0)
    assert solve_endpoints(clash, solver="highs", engine=engine).status == "infeasible"
    empty = add_band(add_band(base, 3, 0.8, 0.05), 3, 0.2, 0.05)
    assert solve_endpoints(empty, solver="highs", engine=engine).status == "infeasible"
    # A set that drops a row the model holds is a new problem: rebuilt.
    again = solve_endpoints(base, solver="highs", engine=engine)
    assert again.status == "solved"
    assert again.lower == pytest.approx(1.0, abs=1e-9)


def _fail_witness_checks(monkeypatch, failing_calls):
    real = polytope._witness_ok
    calls = []

    def flaky(cset, probs, endpoint):
        calls.append(endpoint)
        if len(calls) in failing_calls:
            return False
        return real(cset, probs, endpoint)

    monkeypatch.setattr(polytope, "_witness_ok", flaky)


def _warm_engine_and_next_set():
    rng = np.random.default_rng(9)
    p = sample_dirichlet_uniform(5, rng)
    cset = build_exact_constraints(p, [Label(5, b) for b in (1, 2, 4, 8, 16)])
    engine = HighsModel(5)
    solve_endpoints(cset, solver="highs", engine=engine)
    assert engine.warm
    nxt = build_exact_constraints(p, [Label(5, b) for b in (1, 2, 4, 8, 16, 3, 7)])
    resets = []
    real_reset = engine.reset
    engine.reset = lambda: (resets.append(1), real_reset())
    return engine, nxt, resets


def test_failed_warm_witness_is_resolved_cold(monkeypatch):
    engine, cset, resets = _warm_engine_and_next_set()
    fresh = solve_endpoints(cset, solver="highs")
    _fail_witness_checks(monkeypatch, {1})
    result = solve_endpoints(cset, solver="highs", engine=engine)
    assert resets == [1]
    assert result.solver == "highs"
    assert result.lower == pytest.approx(fresh.lower, abs=1e-9)
    assert result.upper == pytest.approx(fresh.upper, abs=1e-9)


def test_failed_cold_resolve_falls_back_to_dense(monkeypatch):
    engine, cset, resets = _warm_engine_and_next_set()
    fresh = solve_endpoints(cset, solver="highs")
    _fail_witness_checks(monkeypatch, {1, 2})
    result = solve_endpoints(cset, solver="highs", engine=engine)
    assert resets == [1]
    assert result.solver == "dense"
    assert result.lower == pytest.approx(fresh.lower, abs=1e-9)
    assert result.upper == pytest.approx(fresh.upper, abs=1e-9)


def test_highs_runs_are_byte_identical():
    cfg = RunConfig(
        n=6,
        instance=InstanceSpec(kind="dirichlet"),
        policy=PolicyChoice("witness"),
        epsilon=0.01,
        t_max=8,
        seed=5,
        solver="highs",
    )
    first = json.dumps(run_adaptive(cfg).to_json_dict(), sort_keys=True)
    second = json.dumps(run_adaptive(cfg).to_json_dict(), sort_keys=True)
    assert first == second
