"""Unit tests for the feasible-polytope endpoint solver."""

import numpy as np
import pytest

from stabcert.gf2 import Label, sample_uniform_gauge
from stabcert.polytope import (
    ConstraintSet,
    SolverError,
    add_band,
    build_exact_constraints,
    solve_endpoints,
)
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
