"""Unit tests for gauge and label acquisition policies."""

from itertools import combinations

import numpy as np
import pytest

from stabcert.gf2 import XorBasis, greedy_max_weight_basis, rank
from stabcert.policy import (
    DisagreementSpectrum,
    PolicyChoice,
    disagreement_spectrum,
    select_mixed,
    select_single_label,
    select_uniform_gauge,
    select_witness_gauge,
)
from stabcert.syndrome import sample_dirichlet_uniform, walsh


def _mask(n, bits=()):
    """Queried-label mask over all 2^n encodings with ``bits`` set."""
    mask = np.zeros(1 << n, dtype=bool)
    mask[list(bits)] = True
    return mask


def test_disagreement_matches_spectral_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p_lo = sample_dirichlet_uniform(n, rng)
        p_hi = sample_dirichlet_uniform(n, rng)
        d = disagreement_spectrum(p_lo, p_hi)
        s_lo, s_hi = walsh(p_lo), walsh(p_hi)
        for u in range(1 << n):
            want = 0.0 if u == 0 else abs(s_hi.value(u) - s_lo.value(u))
            assert d.value(u) == pytest.approx(want, abs=1e-12)


def test_disagreement_aggregates():
    n = 2
    d = DisagreementSpectrum(n, np.array([0.0, 0.5, 0.25, 1.0]))
    assert d.total_unqueried(_mask(n)) == pytest.approx(1.75)
    assert d.max_unqueried(_mask(n)) == pytest.approx(1.0)
    queried = _mask(n, [3])
    assert d.total_unqueried(queried) == pytest.approx(0.75)
    assert d.max_unqueried(queried) == pytest.approx(0.5)
    assert d.max_unqueried(_mask(n, (1, 2, 3))) == 0.0
    assert d.total_unqueried(_mask(n, (1, 2, 3))) == 0.0


def test_disagreement_validation():
    with pytest.raises(ValueError):
        DisagreementSpectrum(2, np.array([0.0, -0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        DisagreementSpectrum(2, np.array([0.0, 2.5, 0.0, 0.0]))
    # A nonzero entry at the zero label is silently cleared, never scored.
    d = DisagreementSpectrum(2, np.array([1.0, 0.5, 0.5, 0.5]))
    assert d.value(0) == 0.0


def test_witness_gauge_is_max_weight_and_contains_unqueried():
    rng = np.random.default_rng(1)
    n = 3
    for _ in range(50):
        values = rng.uniform(0.0, 2.0, size=1 << n)
        values[0] = 0.0
        d = DisagreementSpectrum(n, values)
        queried_bits = set(
            int(b)
            for b in rng.choice(
                range(1, 1 << n), size=int(rng.integers(0, 6)), replace=False
            )
        )
        gauge = select_witness_gauge(d, _mask(n, queried_bits))
        assert gauge is not None
        cols = gauge.column_bits()
        assert rank(cols) == n
        assert sorted(cols) == cols
        # While any label is unqueried, the gauge must include one.
        assert any(b not in queried_bits for b in cols)
        # Max-weight property with queried labels zeroed, by brute force.
        weights = values.copy()
        for b in queried_bits:
            weights[b] = 0.0
        best = max(
            sum(weights[b] for b in cand)
            for cand in combinations(range(1, 1 << n), n)
            if rank(cand) == n
        )
        assert sum(weights[b] for b in cols) == pytest.approx(best, abs=1e-12)


def test_mask_scans_match_the_label_loops():
    # Reference: the per-label Python loops the masked reductions replace.
    # Values on a coarse grid make ties common.
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        values = rng.integers(0, 5, size=1 << n) / 2.5
        values[0] = 0.0
        d = DisagreementSpectrum(n, values)
        mask = rng.random(1 << n) < rng.random()
        mask[0] = False
        free = [b for b in range(1, 1 << n) if not mask[b]]
        assert d.total_unqueried(mask) == float(sum(values[b] for b in free))
        assert d.max_unqueried(mask) == (max(values[b] for b in free) if free else 0.0)
        best = min(free, key=lambda b: (-values[b], b)) if free else None
        got = select_single_label(d, mask)
        assert (got.bits if got else None) == best
        order = sorted(
            range(1, 1 << n), key=lambda b: (-values[b], bool(mask[b]), b)
        )
        want = XorBasis()
        chosen = [b for b in order if want.rank < n and want.add(b)]
        got = greedy_max_weight_basis(n, values, mask)
        assert sorted(lab.bits for lab in got) == sorted(chosen)


def test_witness_gauge_none_at_full_coverage():
    n = 2
    d = DisagreementSpectrum(n, np.zeros(1 << n))
    assert select_witness_gauge(d, _mask(n, (1, 2, 3))) is None


def test_uniform_gauge_ignores_history_and_reproduces():
    a = select_uniform_gauge(4, np.random.default_rng(7))
    b = select_uniform_gauge(4, np.random.default_rng(7))
    assert a == b


def test_mixed_policy_branches():
    n = 3
    values = np.zeros(1 << n)
    values[5] = 1.0
    d = DisagreementSpectrum(n, values)
    # gamma=0 always takes the witness branch, gamma=1 the uniform one.
    none = _mask(n)
    g0 = select_mixed(0.0, d, none, np.random.default_rng(0))
    assert g0 == select_witness_gauge(d, none)
    g1 = select_mixed(1.0, d, none, np.random.default_rng(0))
    g1_again = select_mixed(1.0, d, none, np.random.default_rng(0))
    assert g1 == g1_again
    with pytest.raises(ValueError):
        select_mixed(1.5, d, none, np.random.default_rng(0))


def test_single_label_selection_and_ties():
    n = 3
    values = np.zeros(1 << n)
    values[3] = 0.8
    values[6] = 0.8
    d = DisagreementSpectrum(n, values)
    assert select_single_label(d, _mask(n)).bits == 3  # tie broken by encoding
    assert select_single_label(d, _mask(n, [3])).bits == 6
    # All-zero spectrum still returns the smallest unqueried label.
    flat = DisagreementSpectrum(n, np.zeros(1 << n))
    assert select_single_label(flat, _mask(n, [1])).bits == 2
    assert select_single_label(flat, _mask(n, range(1, 8))) is None


def test_policy_choice_parsing():
    assert PolicyChoice.parse("witness") == PolicyChoice("witness")
    assert PolicyChoice.parse("uniform").kind == "uniform"
    mixed = PolicyChoice.parse("mixed:0.25")
    assert mixed.kind == "mixed" and mixed.gamma == 0.25
    assert str(mixed) == "mixed:0.25"
    assert str(PolicyChoice.parse("fine")) == "fine"
    with pytest.raises(ValueError):
        PolicyChoice.parse("mixed")
    with pytest.raises(ValueError):
        PolicyChoice.parse("greedy")
    with pytest.raises(ValueError):
        PolicyChoice("mixed", gamma=2.0)


def test_policy_choice_select_gauge_dispatch():
    n = 2
    values = np.zeros(1 << n)
    values[1] = 1.0
    d = DisagreementSpectrum(n, values)
    rng = np.random.default_rng(0)
    none = _mask(n)
    assert PolicyChoice("witness").select_gauge(d, none, rng) is not None
    assert PolicyChoice("uniform").select_gauge(d, none, rng) is not None
    with pytest.raises(ValueError):
        PolicyChoice("fine").select_gauge(d, none, rng)
