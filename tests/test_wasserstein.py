import itertools

import numpy as np
import pytest
import scipy.stats
from helpers import make_dataset, uniform_benchmark, wasserstein_1d
from hypothesis import given
from hypothesis import strategies as st

from dedsid.errors import ConstantChannel, DimensionMismatch, EmptySample
from dedsid.wasserstein import (
    PAIR_LABELS,
    PAIR_TEST_TRAIN,
    PAIR_TEST_UNIFORM,
    PAIR_TRAIN_UNIFORM,
    _uniform_w1,
    _w1_partition,
    ci95_halfwidth,
    split_shift_report,
)

finite_arrays = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30
).map(np.asarray)


# Heavy ties within and across samples: few distinct integer values.
tied_arrays = st.lists(
    st.integers(min_value=-3, max_value=3).map(float), min_size=1, max_size=40
).map(np.asarray)
oracle_arrays = st.one_of(
    finite_arrays,
    tied_arrays,
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
    ).map(np.asarray),
    st.builds(
        np.full,
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
)
# Columns for a corpus of 1-5 experiments; the second branch gives every
# experiment one length, so a mask that marks half of them splits the pooled
# sample into two sides of equal size.
corpus_columns = st.one_of(
    st.lists(tied_arrays | finite_arrays, min_size=1, max_size=5),
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=n, max_size=n)
            .map(np.asarray)
            | st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n
            ).map(np.asarray),
            min_size=2,
            max_size=4,
        )
    ),
)


def triple_sort_oracle(a, b):
    """W1 as the integral of |F_a - F_b|: the three-sort reference kernel."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    merged = np.sort(np.concatenate([a, b]))
    deltas = np.diff(merged)
    if deltas.size == 0:
        return 0.0
    cdf_a = np.searchsorted(a, merged[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, merged[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def uniform_oracle(x):
    return triple_sort_oracle(x, np.linspace(x.min(), x.max(), x.size))


def split_oracle(columns, test):
    """One split's (train/uniform, test/uniform, test/train) distances by the
    triple-sort oracle, or the error class the split must raise."""
    train = np.concatenate([c for c, t in zip(columns, test) if not t] or [np.empty(0)])
    tested = np.concatenate([c for c, t in zip(columns, test) if t] or [np.empty(0)])
    for side in (train, tested):
        if side.size == 0:
            return EmptySample
        if side.min() == side.max():
            return ConstantChannel
    return uniform_oracle(train), uniform_oracle(tested), triple_sort_oracle(tested, train)


def assert_matches_oracle(got, ref):
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def matching_oracle(a, b):
    """Equal-size W1 by brute force over assignments (optimal transport)."""
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = np.mean([abs(a[i] - b[j]) for i, j in enumerate(perm)])
        best = min(best, cost)
    return best


class TestWasserstein1d:
    def test_identical_is_zero(self):
        x = np.array([1.0, 3.0, -2.0])
        assert wasserstein_1d(x, x) == 0.0

    def test_hand_values(self):
        assert wasserstein_1d([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5, abs=1e-12)
        assert wasserstein_1d([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]) == pytest.approx(2 / 3, abs=1e-12)
        assert wasserstein_1d([0.0], [0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_exhaustive_matching(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert wasserstein_1d(a, b) == pytest.approx(matching_oracle(a, b), rel=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(1, 40)))
            b = rng.normal(loc=rng.normal(), size=int(rng.integers(1, 40)))
            assert wasserstein_1d(a, b) == pytest.approx(
                scipy.stats.wasserstein_distance(a, b), rel=1e-10, abs=1e-12
            )

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            wasserstein_1d([], [1.0])

    @given(finite_arrays, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_translation(self, x, c):
        assert wasserstein_1d(x, x + c) == pytest.approx(abs(c), abs=1e-9)

    @given(finite_arrays, finite_arrays)
    def test_symmetry(self, a, b):
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a), rel=1e-12, abs=1e-12)

    @given(finite_arrays, finite_arrays, finite_arrays)
    def test_triangle_inequality(self, a, b, c):
        ab = wasserstein_1d(a, b)
        bc = wasserstein_1d(b, c)
        ac = wasserstein_1d(a, c)
        assert ac <= ab + bc + 1e-9

    @given(finite_arrays, finite_arrays, st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_scale_equivariance(self, a, b, s):
        assert wasserstein_1d(s * a, s * b) == pytest.approx(
            abs(s) * wasserstein_1d(a, b), rel=1e-9, abs=1e-9
        )


class TestAgainstTripleSortOracle:
    @given(oracle_arrays, oracle_arrays)
    def test_wasserstein_1d(self, a, b):
        assert_matches_oracle(wasserstein_1d(a, b), triple_sort_oracle(a, b))

    @given(oracle_arrays)
    def test_size_one_against_any(self, a):
        assert_matches_oracle(wasserstein_1d(a[:1], a), triple_sort_oracle(a[:1], a))

    @given(oracle_arrays)
    def test_uniform_benchmark(self, x):
        if x.min() == x.max():
            with pytest.raises(ConstantChannel):
                uniform_benchmark(x)
        else:
            assert_matches_oracle(uniform_benchmark(x), uniform_oracle(x))

    @given(corpus_columns, st.data())
    def test_split_shift_report(self, columns, data):
        width = len(columns)
        splits = np.array(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=width, max_size=width),
                    min_size=1,
                    max_size=4,
                )
            )
        )
        corpus = [make_dataset(c, names=["m"]) for c in columns]
        expected = [split_oracle(columns, test) for test in splits]
        error = next((e for e in expected if isinstance(e, type)), None)
        if error is not None:
            with pytest.raises(error):
                split_shift_report(corpus, splits, ["m"])
            return
        results = split_shift_report(corpus, splits, ["m"])
        assert [r.pair_label for r in results] == list(PAIR_LABELS)
        for result, refs in zip(results, zip(*expected)):
            assert result.repeats == len(splits)
            for got, ref in zip(result.distances, refs):
                assert_matches_oracle(got, ref)

    def test_sides_of_equal_size(self):
        rng = np.random.default_rng(5)
        columns = [rng.normal(i, 1.0, size=50) for i in range(4)]
        corpus = [make_dataset(c, names=["m"]) for c in columns]
        splits = np.array([[True, False, True, False], [False, True, True, False]])
        results = {r.pair_label: r for r in split_shift_report(corpus, splits, ["m"])}
        for k, test in enumerate(splits):
            tested = np.concatenate([c for c, t in zip(columns, test) if t])
            train = np.concatenate([c for c, t in zip(columns, test) if not t])
            assert tested.size == train.size == 100
            assert_matches_oracle(
                results[PAIR_TEST_TRAIN].distances[k], triple_sort_oracle(tested, train)
            )
            assert results[PAIR_TEST_TRAIN].distances[k] == pytest.approx(
                scipy.stats.wasserstein_distance(tested, train), rel=1e-12
            )


class TestUniformBenchmark:
    def test_uniform_grid_scores_near_zero(self):
        n = 500
        assert uniform_benchmark(np.linspace(0.0, 1.0, n)) < 2.0 / n

    def test_skewed_sample_scores_positive(self):
        rng = np.random.default_rng(3)
        x = rng.beta(0.5, 3.0, size=2000)
        assert uniform_benchmark(x) > 0.05

    def test_constant_sample_rejected(self):
        with pytest.raises(ConstantChannel):
            uniform_benchmark(np.full(10, 1.0))

    def test_delta_against_explicit_uniform_grid(self):
        # Mass at the midpoint of [0, 1] transported to uniform costs 1/4.
        n = 10_000
        d = wasserstein_1d(np.full(n, 0.5), np.linspace(0.0, 1.0, n))
        assert d == pytest.approx(0.25, abs=1e-3)


class TestCi95:
    def test_single_value_is_zero(self):
        assert ci95_halfwidth([3.0]) == 0.0

    def test_known_value(self):
        vals = [1.0, 2.0, 3.0]
        expected = 1.96 * np.std(vals, ddof=1) / np.sqrt(3)
        assert ci95_halfwidth(vals) == pytest.approx(expected, rel=1e-12)


class TestSplitShiftReport:
    def _corpus(self, seed, n=4):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            out.append(
                make_dataset(
                    rng.normal(i, 1.0, size=(40, 2)),
                    names=["m1", "m2"],
                    experiment_id=f"e{i}",
                )
            )
        return out

    def test_three_pairs_per_channel(self):
        corpus = self._corpus(0)
        splits = np.array([[False, False, False, True], [True, False, False, False]])
        results = split_shift_report(corpus, splits, ["m1", "m2"])
        labels = {(r.channel, r.pair_label) for r in results}
        assert labels == {
            (ch, pair)
            for ch in ("m1", "m2")
            for pair in (PAIR_TRAIN_UNIFORM, PAIR_TEST_UNIFORM, PAIR_TEST_TRAIN)
        }
        assert all(r.repeats == 2 for r in results)
        assert all(len(r.distances) == 2 for r in results)

    def test_identical_splits_give_zero_ci(self):
        corpus = self._corpus(1)
        splits = np.array([[False, False, True, True], [False, False, True, True]])
        results = split_shift_report(corpus, splits, ["m1"])
        for r in results:
            assert r.ci95_halfwidth == pytest.approx(0.0, abs=1e-12)

    def test_shifted_test_pool_dominates(self):
        rng = np.random.default_rng(2)
        train = [make_dataset(rng.normal(0, 1, size=(200, 1)), names=["m"]) for _ in range(3)]
        test = [make_dataset(rng.normal(5, 1, size=(200, 1)), names=["m"]) for _ in range(2)]
        splits = np.array([[False, False, False, True, True]])
        results = {r.pair_label: r for r in split_shift_report(train + test, splits, ["m"])}
        assert results[PAIR_TEST_TRAIN].mean_distance > 3.0

    def test_order_within_ties_changes_no_distance(self):
        # A 0/1 flag channel and a few-valued one: numpy's default argsort
        # orders their ties otherwise than a stable sort, and every distance
        # still equals, bit for bit, the one scored on the stable order.
        rng = np.random.default_rng(6)
        columns = [
            np.column_stack([rng.integers(0, 2, 4000), rng.integers(-3, 4, 4000)]).astype(float)
            for _ in range(4)
        ]
        corpus = [make_dataset(c, names=["flag", "level"]) for c in columns]
        splits = np.array([[True, False, False, True], [False, True, False, False]])
        results = split_shift_report(corpus, splits, ["flag", "level"])
        experiment = np.repeat(np.arange(4), 4000)
        for j, channel in enumerate(("flag", "level")):
            values = np.concatenate([c[:, j] for c in columns])
            order = np.argsort(values, kind="stable")
            assert not np.array_equal(np.argsort(values), order)
            ordered = values[order]
            expected = [
                (_uniform_w1(ordered[~m]), _uniform_w1(ordered[m]), _w1_partition(ordered, m))
                for m in splits[:, experiment[order]]
            ]
            got = [r.distances for r in results if r.channel == channel]
            assert got == [tuple(d) for d in zip(*expected)]

    def test_splits_must_mark_each_experiment(self):
        corpus = self._corpus(3)
        with pytest.raises(DimensionMismatch):
            split_shift_report(corpus, np.array([[False, True, False]]), ["m1"])
        with pytest.raises(EmptySample):
            split_shift_report(corpus, np.zeros((0, 4), dtype=bool), ["m1"])
