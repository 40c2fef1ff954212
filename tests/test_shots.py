"""Unit tests for finite-shot simulation and confidence radii."""

import math

import numpy as np
import pytest

from stabcert.shots import ShotModel, hoeffding_radius, measure_label


def test_measure_label_range_and_mean():
    rng = np.random.default_rng(0)
    for mu in (-0.9, -0.3, 0.0, 0.5, 0.97):
        draws = np.array([measure_label(mu, 400, rng) for _ in range(300)])
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)
        # Standard error of the mean of means is sigma/sqrt(400*300).
        assert abs(draws.mean() - mu) < 5.0 / math.sqrt(400 * 300) + 1e-12
    assert measure_label(1.0, 50, rng) == 1.0
    assert measure_label(-1.0, 50, rng) == -1.0
    with pytest.raises(ValueError):
        measure_label(1.2, 10, rng)
    with pytest.raises(ValueError):
        measure_label(0.0, 0, rng)


def test_measure_label_is_an_empirical_mean_of_shots():
    # The estimate must live on the grid {2k/N - 1}.
    rng = np.random.default_rng(1)
    for _ in range(100):
        val = measure_label(0.3, 7, rng)
        k = (val + 1.0) * 7 / 2.0
        assert k == pytest.approx(round(k), abs=1e-12)


def test_hoeffding_radius_formula():
    got = hoeffding_radius(10000, 8, 8, 0.05)
    assert got == pytest.approx(math.sqrt(2.0 * math.log(2 * 8 * 8 / 0.05) / 10000))
    # Radius shrinks with shots and grows with the union-bound count.
    assert hoeffding_radius(40000, 8, 8, 0.05) < got
    assert hoeffding_radius(10000, 8, 16, 0.05) > got
    with pytest.raises(ValueError):
        hoeffding_radius(0, 8, 8, 0.05)
    with pytest.raises(ValueError):
        hoeffding_radius(100, 8, 8, 1.0)


def test_shot_model_parse_and_format():
    exact = ShotModel.parse("exact")
    assert exact.exact and str(exact) == "exact"
    assert exact.eta(8) == 0.0
    fin = ShotModel.parse("finite:Ns=10000,delta=0.05,Tmax=8")
    assert not fin.exact
    assert fin.n_shots == 10000 and fin.delta == 0.05 and fin.t_max == 8
    assert str(fin) == "finite:Ns=10000,delta=0.05,Tmax=8"
    assert ShotModel.parse(str(fin)) == fin
    assert fin.eta(8) == pytest.approx(hoeffding_radius(10000, 8, 8, 0.05))
    # Scientific notation for the budget is accepted.
    assert ShotModel.parse("finite:Ns=1e4,delta=0.05,Tmax=8").n_shots == 10000


def test_shot_model_rejects_malformed_text():
    for bad in (
        "finite",
        "finite:Ns=100",
        "finite:Ns=100,delta=0.05,Tmax=8,extra=1",
        "finite:Ns=100,delta=2.0,Tmax=8",
        "gauss:Ns=100",
    ):
        with pytest.raises(ValueError):
            ShotModel.parse(bad)
    with pytest.raises(ValueError):
        ShotModel("finite", n_shots=0)
    with pytest.raises(ValueError):
        ShotModel("sometimes")


def test_shot_budget_must_be_a_finite_whole_number():
    # Neither truncated (1000.9 -> 1000) nor left to overflow in int().
    for ns in ("1000.9", "0.5", "inf", "-inf", "nan", "1e400"):
        with pytest.raises(ValueError, match="Ns must be a finite whole number"):
            ShotModel.parse(f"finite:Ns={ns},delta=0.05,Tmax=8")
    assert ShotModel.parse("finite:Ns=1000.0,delta=0.05,Tmax=8").n_shots == 1000


def test_union_bound_coverage_without_lps():
    # Simulate 600 measurement campaigns of n*T_max = 64 labels at
    # N_s = 10^4: the event that every estimate stays within the shared
    # radius eta of its mean must hold with frequency >= 1 - delta - 0.03.
    n, t_max, n_shots, delta = 8, 8, 10000, 0.05
    eta = hoeffding_radius(n_shots, n, t_max, delta)
    rng = np.random.default_rng(42)
    campaigns = 600
    labels = n * t_max
    covered = 0
    for _ in range(campaigns):
        mu = rng.uniform(-1.0, 1.0, size=labels)
        mu[0] = 0.0  # keep one worst-variance label in every campaign
        k = rng.binomial(n_shots, (1.0 + mu) / 2.0)
        mu_hat = 2.0 * k / n_shots - 1.0
        if np.all(np.abs(mu_hat - mu) <= eta):
            covered += 1
    assert covered / campaigns >= 1.0 - delta - 0.03
