"""Signed-rank, rank-sum and rank-table tests, anchored by brute-force
and scipy oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.stats import rankdata

from snailopt.harness import write_table_csv
from snailopt.stats import (EXACT_LIMIT, WilcoxonResult, _exact_two_sided_p,
                            _midranks, friedman_ranks, holm,
                            wilcoxon_signed_rank)
from table_io import read_table_csv


# ---------------------------------------------------------------------------
# midranks
# ---------------------------------------------------------------------------

def _tied_samples():
    rng = np.random.default_rng(41)
    for size in (2, 3, 7, 20, 21, 60, 200):
        yield pytest.param(np.round(3.0 * rng.normal(size=size)),
                           id=f"integers-n{size}")
        yield pytest.param(np.round(rng.normal(size=size), 1),
                           id=f"tenths-n{size}")


@pytest.mark.parametrize("values", [
    *_tied_samples(),
    pytest.param(np.array([2.5]), id="single"),
    pytest.param(np.full(9, 4.0), id="all-equal"),
    pytest.param(np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0]),
                 id="signed-zeros"),
])
def test_midranks_equal_scipy_rankdata_bit_for_bit(values):
    got = np.asarray(_midranks(values))
    ref = rankdata(values)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_nan_results_are_rejected_not_ranked():
    for n in (6, EXACT_LIMIT + 5):
        a = np.arange(1.0, n + 1.0)
        a[2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(a, np.zeros(n))
    with pytest.raises(ValueError, match="NaN"):
        friedman_ranks([[1.0, np.nan], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# signed-rank test
# ---------------------------------------------------------------------------

def test_five_positive_pairs_give_the_textbook_tail():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], np.zeros(5),
                               labels=("high", "zero"))
    assert res.p_value == 0.0625
    assert res.t_plus == 15.0 and res.t_minus == 0.0
    assert res.n_nonzero == 5
    assert res.winner == "zero"
    assert not res.significant
    assert res.method == "exact"


def test_swapping_samples_swaps_rank_sums_not_p():
    rng = np.random.default_rng(2)
    a = rng.normal(size=9)
    b = rng.normal(size=9)
    ab = wilcoxon_signed_rank(a, b, labels=("a", "b"))
    ba = wilcoxon_signed_rank(b, a, labels=("b", "a"))
    assert ab.p_value == ba.p_value
    assert ab.t_plus == ba.t_minus and ab.t_minus == ba.t_plus
    assert ab.winner == ba.winner


def test_positive_scaling_leaves_the_test_invariant():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 8, size=10).astype(float)
    b = rng.integers(0, 8, size=10).astype(float)
    base = wilcoxon_signed_rank(a, b)
    # power-of-two factor: the products are exact, so |d| ties survive
    scaled = wilcoxon_signed_rank(4.0 * a, 4.0 * b)
    assert scaled.p_value == base.p_value
    assert scaled.t_plus == base.t_plus
    assert scaled.t_minus == base.t_minus


def test_zero_differences_are_dropped():
    a = np.array([4.0, 4.0, 4.0, 4.0, 4.0, 11.0])
    b = np.array([4.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    res = wilcoxon_signed_rank(a, b)
    assert res.n_nonzero == 1
    assert res.t_plus == 1.0 and res.t_minus == 0.0
    assert res.p_value == 1.0  # both tails of one pair
    for n in range(1, 13):  # n small-integer differences (tied |d|), zero-padded to >= 5 pairs
        a = [(-1.0) ** k * (1 + k % 3) for k in range(n)] + [0.0] * max(0, 5 - n)
        assert wilcoxon_signed_rank(a, [0.0] * len(a)).n_nonzero == n


#: the result for paired samples that never differ
NO_INFORMATION = WilcoxonResult(n_nonzero=0, p_value=1.0, t_plus=0.0,
                                t_minus=0.0, winner="no information",
                                significant=False, method="none")


def test_all_zero_differences_give_no_information():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert wilcoxon_signed_rank(v, v.copy(), labels=("a", "b")) == NO_INFORMATION


def test_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([[1.0] * 5], [[0.0] * 5])
    with pytest.raises(ValueError):  # 2-D, though each row holds one number
        wilcoxon_signed_rank(np.ones((5, 1)), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, [2.0], 3.0, 4.0, 5.0], np.zeros(5))


def test_matches_scipy_exact_on_tie_free_data():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mags = rng.permutation(np.arange(1.0, 11.0))[:8]
        d = mags * rng.choice([-1.0, 1.0], size=8)
        ours = wilcoxon_signed_rank(d, np.zeros(8))
        ref = sps.wilcoxon(d, alternative="two-sided", method="exact")
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12)


def test_method_switches_at_the_exact_limit():
    rng = np.random.default_rng(7)
    at = rng.normal(0.2, 1.0, EXACT_LIMIT)
    beyond = rng.normal(0.2, 1.0, EXACT_LIMIT + 1)
    assert wilcoxon_signed_rank(at, np.zeros_like(at)).method == "exact"
    assert wilcoxon_signed_rank(beyond, np.zeros_like(beyond)).method == "normal"


def test_normal_approximation_tracks_the_exact_tail():
    rng = np.random.default_rng(11)
    d = rng.normal(0.3, 1.0, 25)
    res = wilcoxon_signed_rank(d, np.zeros(25))
    assert res.method == "normal"
    ranks = rankdata(np.abs(d))
    exact = _exact_two_sided_p(ranks, min(res.t_plus, res.t_minus))
    assert abs(res.p_value - exact) < 0.02, (res.p_value, exact)


@pytest.mark.parametrize("shift", [0.0, 0.3, 0.8, 1.5])
@pytest.mark.parametrize("n", [EXACT_LIMIT + 1, 40, 120])
def test_normal_p_value_matches_scipy_normal_tail(n, shift):
    rng = np.random.default_rng(n)
    d = np.round(rng.normal(shift, 1.0, n), 1)  # many tied |d|
    d[d == 0.0] = 0.1  # a zero would drop the smallest case to exact
    res = wilcoxon_signed_rank(d, np.zeros(n))
    assert res.method == "normal"
    ranks = rankdata(np.abs(d))
    z = ((min(res.t_plus, res.t_minus) - n * (n + 1) / 4.0 + 0.5)
         / np.sqrt(np.sum(ranks ** 2) / 4.0))
    ref = min(1.0, 2.0 * float(sps.norm.cdf(z)))
    assert res.p_value == pytest.approx(ref, rel=1e-13, abs=0.0)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=18))
def test_rank_sums_partition_the_total(diffs):
    a = np.asarray(diffs, dtype=float) + 3.0
    b = np.full(len(diffs), 3.0)
    res = wilcoxon_signed_rank(a, b)
    assert isinstance(res, WilcoxonResult)
    n = res.n_nonzero
    if n == 0:
        assert res == NO_INFORMATION
        return
    assert res.t_plus + res.t_minus == pytest.approx(n * (n + 1) / 2, abs=1e-9)
    assert 0.0 < res.p_value <= 1.0


# ---------------------------------------------------------------------------
# rank-sum test
# ---------------------------------------------------------------------------

def brute_force_rank_sum_p(a, b):
    """Two-sided exact p by enumerating all C(N, n_a) splits of the pooled
    midranks: the smaller tail at a's rank sum, doubled (midranks are
    halves, so every sum is exact)."""
    ranks = [float(r) for r in rankdata(np.concatenate([a, b]))]
    r_a = sum(ranks[:len(a)])
    sums = [sum(split) for split in itertools.combinations(ranks, len(a))]
    tail = min(sum(s <= r_a for s in sums), sum(s >= r_a for s in sums))
    return min(1.0, 2.0 * tail / len(sums))


def test_rank_sum_matches_scipy_exact_on_tie_free_samples():
    rng = np.random.default_rng(43)
    for _ in range(300):
        n_a, n_b = (int(n) for n in rng.integers(5, 11, size=2))
        v = rng.permutation(100)[:n_a + n_b].astype(float)
        ours = wilcoxon_signed_rank(v[:n_a], v[n_a:], paired=False)
        ref = sps.mannwhitneyu(v[:n_a], v[n_a:], method="exact")
        assert ours.method == "exact" and ours.n_nonzero == n_a + n_b
        assert ours.t_plus == ref.statistic
        assert ours.t_minus == n_a * n_b - ref.statistic
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)


def test_rank_sum_exact_p_matches_brute_force_enumeration_with_ties():
    rng = np.random.default_rng(47)
    for _ in range(300):
        n_a, n_b = (int(n) for n in rng.integers(5, 8, size=2))
        v = rng.integers(0, rng.choice([2, 3, 5, 10]), n_a + n_b).astype(float)
        res = wilcoxon_signed_rank(v[:n_a], v[n_a:], paired=False)
        if np.all(v == v[0]):
            assert res == NO_INFORMATION
            continue
        assert res.method == "exact"
        assert res.p_value == brute_force_rank_sum_p(v[:n_a], v[n_a:])  # bit-for-bit


@pytest.mark.parametrize("shift", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("sizes", [(5, 16), (11, 11), (30, 45)])
def test_rank_sum_normal_p_matches_scipy_asymptotic(sizes, shift):
    rng = np.random.default_rng(sum(sizes))
    a = np.round(rng.normal(0.0, 1.0, sizes[0]), 1)  # many ties
    b = np.round(rng.normal(shift, 1.0, sizes[1]), 1)
    ours = wilcoxon_signed_rank(a, b, paired=False)
    ref = sps.mannwhitneyu(a, b, method="asymptotic", use_continuity=True)
    assert ours.method == "normal" and ours.n_nonzero == sum(sizes)
    assert ours.t_plus == ref.statistic
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-13, abs=0.0)


def test_rank_sum_method_switches_at_the_exact_limit():
    rng = np.random.default_rng(53)
    v = rng.normal(size=EXACT_LIMIT + 1)
    assert wilcoxon_signed_rank(v[:5], v[5:-1], paired=False).method == "exact"
    assert wilcoxon_signed_rank(v[:5], v[5:], paired=False).method == "normal"


def test_rank_sum_swapping_samples_swaps_u_not_p():
    rng = np.random.default_rng(59)
    a, b = rng.normal(size=6), rng.normal(0.5, 1.0, size=9)
    ab = wilcoxon_signed_rank(a, b, labels=("a", "b"), paired=False)
    ba = wilcoxon_signed_rank(b, a, labels=("b", "a"), paired=False)
    assert ab.p_value == ba.p_value
    assert ab.t_plus == ba.t_minus and ab.t_minus == ba.t_plus
    assert ab.winner == ba.winner
    assert ab.t_plus + ab.t_minus == 6 * 9


def test_rank_sum_input_validation():
    assert wilcoxon_signed_rank(np.ones(5), np.ones(7), paired=False) == NO_INFORMATION
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.arange(4.0), np.arange(9.0), paired=False)
    with pytest.raises(ValueError, match="NaN"):
        wilcoxon_signed_rank([1.0, 2.0, np.nan, 4.0, 5.0], np.zeros(5), paired=False)


# ---------------------------------------------------------------------------
# mean ranks
# ---------------------------------------------------------------------------

def test_friedman_dominant_column_gets_rank_one():
    m = [[1.0, 2.0], [3.0, 9.0], [0.5, 0.6]]
    res = friedman_ranks(m, labels=("good", "bad"))
    assert np.allclose(res.mean_ranks, [1.0, 2.0])
    assert list(res.ordering) == [1, 2]


def test_friedman_identical_columns_share_the_middle_rank():
    m = np.ones((4, 5))
    res = friedman_ranks(m)
    assert np.allclose(res.mean_ranks, 3.0)  # (k + 1) / 2
    assert list(res.ordering) == [1, 2, 3, 4, 5]  # stable tie-break


def test_friedman_uses_midranks_within_a_row():
    res = friedman_ranks([[1.0, 1.0, 2.0], [5.0, 6.0, 7.0]])
    assert np.allclose(res.mean_ranks, [(1.5 + 1) / 2, (1.5 + 2) / 2, 3.0])


def test_friedman_column_permutation_permutes_ranks():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(6, 4))
    perm = [2, 0, 3, 1]
    base = friedman_ranks(m)
    shuffled = friedman_ranks(m[:, perm])
    assert np.allclose(shuffled.mean_ranks, np.asarray(base.mean_ranks)[perm])
    assert list(shuffled.ordering) == [int(base.ordering[j]) for j in perm]


@given(st.lists(st.lists(st.integers(min_value=-50, max_value=50),
                         min_size=3, max_size=3),
                min_size=2, max_size=8))
def test_friedman_is_invariant_under_monotone_transforms(rows):
    m = np.asarray(rows, dtype=float)
    base = friedman_ranks(m)
    cubed = friedman_ranks(m ** 3)  # strictly increasing, tie-preserving
    assert np.array_equal(base.mean_ranks, cubed.mean_ranks)
    assert np.array_equal(base.ordering, cubed.ordering)


def test_friedman_shape_and_label_validation():
    with pytest.raises(ValueError):
        friedman_ranks([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        friedman_ranks([[1.0, 2.0]])
    with pytest.raises(ValueError):
        friedman_ranks([[1.0], [2.0]])
    with pytest.raises(ValueError):
        friedman_ranks([[1.0, 2.0], [3.0, 4.0]], labels=("only-one",))
    with pytest.raises(ValueError):  # ragged
        friedman_ranks([[1.0, 2.0], [3.0, 4.0, 5.0]])
    with pytest.raises(ValueError):
        friedman_ranks(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        friedman_ranks(3.0)


# ---------------------------------------------------------------------------
# Holm
# ---------------------------------------------------------------------------

def test_holm_steps_down_keeps_the_order_and_caps_at_one():
    # sorted: 0.005 * 4 = 0.02, 0.01 * 3 = 0.03, 0.03 * 2 = 0.06, then
    # 0.04 * 1 = 0.04 is raised to the 0.06 before it
    assert holm([0.01, 0.04, 0.03, 0.005]) == pytest.approx([0.03, 0.06, 0.06, 0.02])
    # 0.2 * 3 = 0.6, 0.4 * 2 = 0.8, 0.7 raised to 0.8; 0.6 * 2 = 1.2 capped
    assert holm([0.4, 0.7, 0.2]) == pytest.approx([0.8, 0.8, 0.6])
    assert holm([0.6, 0.7]) == [1.0, 1.0]
    assert holm([0.03]) == [0.03]
    assert holm([]) == []
    with pytest.raises(ValueError):
        holm([[0.1]])


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_table_csv_round_trip_preserves_types(tmp_path):
    rng = np.random.default_rng(5)
    base = rng.random(7)
    rows = []
    for label in ("b", "c"):
        r = wilcoxon_signed_rank(rng.random(7), base, labels=(label, "a"))
        rows.append({"a": label, "b": "a", "n_nonzero": r.n_nonzero,
                     "p_value": r.p_value, "t_plus": r.t_plus,
                     "winner": r.winner, "significant": r.significant,
                     "method": r.method})
    path = tmp_path / "table.csv"
    write_table_csv(path, rows)
    assert read_table_csv(path) == rows


def test_empty_table_writes_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    write_table_csv(path, [])
    assert path.read_text() == ""
    assert read_table_csv(path) == []
