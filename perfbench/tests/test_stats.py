import pytest

from seqbench.stats import highest_supported, min_samples, percentile, samples_beyond, supported


@pytest.mark.parametrize("p, n_min", [(75, 40), (90, 100), (95, 200), (99, 1000), (99.9, 10000)])
def test_percentile_needs_ten_samples_beyond(p, n_min):
    assert min_samples(p) == n_min
    assert supported(p, n_min) and samples_beyond(p, n_min) == 10
    assert not supported(p, n_min - 1)


@pytest.mark.parametrize("n, expected", [(9, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
                                         (199, 90), (200, 95), (1000, 99), (10**4, 99.9)])
def test_highest_supported_percentile(n, expected):
    assert highest_supported(n) == expected


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    xs = list(range(1, 101))        # 1..100, shuffled order must not matter
    assert percentile(reversed(xs), 50) == 50
    assert percentile(xs, 90) == 90
    assert sum(x > percentile(xs, 90) for x in xs) == 10
    with pytest.raises(ValueError):
        percentile(xs[:-1], 90)
    assert percentile(xs[:-1], 90, require_support=False) == 90
    with pytest.raises(ValueError):
        percentile([], 50)
