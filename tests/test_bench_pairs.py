"""The verdict of tests/bench_pairs.py on fixed pairs of runs."""

import pytest

import bench_pairs

# parent runs 10.0 .. 10.9: median 10.45, quartiles 10.225 and 10.675, so an
# interquartile distance of 0.45, 4.3% of the median
_PARENT = [10 + k / 10 for k in range(10)]


@pytest.mark.parametrize(
    "change, bound, verdict",
    [
        # lower in 10 of 10 pairs, and the medians 1.0 apart, more than the IQR
        ([p - 1 for p in _PARENT], 0.2, "gain"),
        # lower in every pair, but by less than the IQR
        ([p - 0.3 for p in _PARENT], 0.2, "within the bound"),
        # 9.6% worse, against a 20% bound
        ([p + 1 for p in _PARENT], 0.2, "within the bound"),
        # 9.6% worse, against a 4% bound that the parent's IQR of 4.3% exceeds
        ([p + 1 for p in _PARENT], 0.04, "unresolved"),
        # 9.6% worse, against a 5% bound that the parent's IQR stays inside
        ([p + 1 for p in _PARENT], 0.05, "regression"),
    ],
    ids=["gain", "within-lower", "within-higher", "unresolved", "regression"],
)
def test_verdict_on_fixed_pairs(change, bound, verdict):
    assert bench_pairs.verdict(list(zip(_PARENT, change)), bound, "lower") == verdict


def test_a_higher_is_better_metric_reads_the_other_way():
    pairs = list(zip(_PARENT, [p + 1 for p in _PARENT]))
    assert bench_pairs.verdict(pairs, 0.05, "higher") == "gain"
    assert bench_pairs.verdict([(c, p) for p, c in pairs], 0.05, "higher") == "regression"


def test_summary_on_fixed_pairs():
    # lower by 0.3 in the first 7 pairs and higher by 0.3 in the last 3:
    # change median 10.15, 0.3 below the parent's, less than its IQR of 0.45
    change = [p - 0.3 if k < 7 else p + 0.3 for k, p in enumerate(_PARENT)]
    entry = bench_pairs.summary(list(zip(_PARENT, change)), 0.2, "lower")
    assert entry["parent_median"] == 10.45 and entry["change_median"] == 10.15
    assert entry["change_pct"] == -2.87
    assert entry["verdict"] == "within the bound"
    assert entry["change_lower_pairs"] == 7
    assert entry["parent_quartiles"] == [10.225, 10.675]
    assert entry["parent_iqr_pct"] == 4.31
    assert entry["median_gap_exceeds_parent_iqr"] is False
    # read the other way, the change is better in 3 pairs and its median
    # 2.87% worse, within the bound
    entry = bench_pairs.summary(list(zip(_PARENT, change)), 0.2, "higher")
    assert entry["change_higher_pairs"] == 3 and entry["verdict"] == "within the bound"
