"""Unit tests for the GF(2) linear-algebra layer."""

from itertools import combinations

import numpy as np
import pytest

from stabcert.gf2 import (
    Gauge,
    Label,
    XorBasis,
    apply_transpose,
    greedy_max_weight_basis,
    in_span,
    invert_columns,
    nullspace,
    rank,
    sample_uniform_gauge,
)


def test_label_validation():
    Label(3, 0)
    Label(3, 7)
    with pytest.raises(ValueError):
        Label(3, 8)
    with pytest.raises(ValueError):
        Label(0, 0)
    with pytest.raises(ValueError):
        Label(3, -1)


def test_label_dot_is_parity_of_and():
    a = Label(4, 0b1011)
    b = Label(4, 0b1110)
    # AND = 1010, two set bits, parity 0.
    assert a.dot(b) == 0
    assert a.dot(Label(4, 0b0001)) == 1
    with pytest.raises(ValueError):
        a.dot(Label(3, 1))


def test_label_xor_and_tokens():
    a = Label(5, 0b10110)
    b = Label(5, 0b00011)
    assert (a ^ b).bits == 0b10101
    assert a.to_token() == "u16"
    assert Label.from_token("u16", 5) == a
    with pytest.raises(ValueError):
        Label.from_token("16", 5)
    with pytest.raises(ValueError):
        Label.from_token("uzz", 5)


def test_xor_basis_incremental():
    basis = XorBasis()
    assert basis.add(0b101)
    assert basis.add(0b011)
    assert not basis.add(0b110)  # xor of the first two
    assert basis.rank == 2
    assert basis.contains(0b110)
    assert basis.contains(0)
    assert not basis.contains(0b100)


def test_rank_against_numpy_mod2():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        vecs = [int(v) for v in rng.integers(0, 1 << n, size=k)]
        mat = np.array(
            [[(v >> j) & 1 for j in range(n)] for v in vecs], dtype=np.int64
        )
        # Rank over GF(2) by elimination on the integer matrix.
        m = mat.copy() % 2
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, len(vecs)) if m[i, col]), None)
            if piv is None:
                continue
            m[[r, piv]] = m[[piv, r]]
            for i in range(len(vecs)):
                if i != r and m[i, col]:
                    m[i] = (m[i] + m[r]) % 2
            r += 1
        assert rank(vecs) == r


def test_in_span_small_exhaustive():
    vecs = [0b0011, 0b0101]
    span = {0}
    for v in vecs:
        span |= {s ^ v for s in span}
    for cand in range(16):
        assert in_span(cand, vecs) == (cand in span)


def test_nullspace_is_the_annihilator():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        vecs = [int(v) for v in rng.integers(0, 1 << n, size=k)]
        basis = nullspace(vecs, n)
        assert len(basis) == n - rank(vecs)
        assert rank(basis) == len(basis)
        for u in basis:
            for v in vecs:
                assert (u & v).bit_count() % 2 == 0
    # Exhaustive cross-check at n=4: the span of the basis is exactly
    # the set of vectors orthogonal to every input.
    vecs = [0b1100, 0b1010]
    basis = nullspace(vecs, 4)
    annihilator = {
        u
        for u in range(16)
        if all((u & v).bit_count() % 2 == 0 for v in vecs)
    }
    member = {u for u in range(16) if in_span(u, basis)}
    assert member == annihilator


def test_invert_columns_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        gauge = sample_uniform_gauge(n, rng)
        cols = gauge.column_bits()
        inv = invert_columns(cols, n)
        # A * A^{-1} = I, column by column: applying A to the j-th
        # inverse column must give e_j.
        for j in range(n):
            out = 0
            for i in range(n):
                if (inv[j] >> i) & 1:
                    out ^= cols[i]
            assert out == 1 << j
    with pytest.raises(ValueError):
        invert_columns([0b01, 0b01], 2)
    with pytest.raises(ValueError):
        invert_columns([1], 2)


def test_apply_transpose_matches_matrix_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        cols = [int(c) for c in rng.integers(0, 1 << n, size=n)]
        v = int(rng.integers(0, 1 << n))
        mat = np.array(
            [[(cols[j] >> i) & 1 for j in range(n)] for i in range(n)]
        )
        vec = np.array([(v >> i) & 1 for i in range(n)])
        expect = (mat.T @ vec) % 2
        got = apply_transpose(cols, v)
        assert [(got >> i) & 1 for i in range(n)] == list(expect)


def test_gauge_validation_and_tokens():
    g = Gauge.identity(3)
    assert g.column_bits() == [1, 2, 4]
    assert g.to_tokens() == ["u1", "u2", "u4"]
    assert Gauge.from_tokens(["u1", "u2", "u4"], 3) == g
    with pytest.raises(ValueError):
        Gauge.from_bits(3, [1, 2, 3])  # dependent
    with pytest.raises(ValueError):
        Gauge.from_bits(3, [1, 2])  # wrong count
    with pytest.raises(ValueError):
        Gauge.from_bits(3, [0, 1, 2])  # zero column


def test_sample_uniform_gauge_hits_all_of_gl2():
    # GL(2, 2) has exactly 6 elements; a uniform sampler should see all of
    # them quickly and with roughly equal frequency.
    rng = np.random.default_rng(4)
    counts: dict[tuple[int, ...], int] = {}
    draws = 1200
    for _ in range(draws):
        g = sample_uniform_gauge(2, rng)
        key = tuple(g.column_bits())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - draws / 6) < 6 * np.sqrt(draws / 6)


def test_greedy_basis_matches_exhaustive_max_weight():
    # At n=3 every basis is a 3-subset of the 7 nonzero labels with full
    # rank; exhaustive search gives the exact optimum to compare against.
    rng = np.random.default_rng(5)
    n = 3
    for _ in range(50):
        weights = rng.uniform(0.0, 2.0, size=1 << n)
        weights[0] = 0.0
        best = -1.0
        for cols in combinations(range(1, 1 << n), n):
            if rank(cols) < n:
                continue
            best = max(best, sum(weights[b] for b in cols))
        chosen = greedy_max_weight_basis(n, weights)
        got = sum(weights[lab.bits] for lab in chosen)
        assert abs(got - best) < 1e-12
        assert rank([lab.bits for lab in chosen]) == n


def test_greedy_basis_prefers_unqueried_on_ties():
    n = 3
    weights = np.ones(1 << n)
    weights[0] = 0.0
    queried = np.zeros(1 << n, dtype=bool)
    queried[[1, 2]] = True
    chosen = greedy_max_weight_basis(n, weights, queried)
    # All weights tie, so the tie-break must pick the three smallest
    # unqueried encodings that stay independent: 3, 4, 5.
    assert sorted(lab.bits for lab in chosen) == [3, 4, 5]


def test_greedy_basis_input_validation():
    with pytest.raises(ValueError):
        greedy_max_weight_basis(2, np.ones(3))
    with pytest.raises(ValueError):
        greedy_max_weight_basis(2, -np.ones(4))
