import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dedsid.artifacts import to_plain
from dedsid.config import VifConfig
from dedsid.dmdc import build_snapshots
from dedsid.errors import EmptySurvivorSet
from dedsid.vif import screen_inputs
from helpers import (
    make_dataset,
    matrix_rank,
    pooled_screen,
    select_on_rows,
    traced_peak,
    vif_single,
)

# Hand-worked instance (columns already zero-mean):
#   x1 = [ 1, -1,  1, -1]
#   x2 = [ 1,  1, -1, -1]
#   x3 = [ 2,  0,  1, -3]
# Regressing each column on the others gives R^2 of 0.9, 0.8, and 13/14,
# hence VIFs of exactly 10, 5, and 14.
HAND_X = np.array(
    [
        [1.0, 1.0, 2.0],
        [-1.0, 1.0, 0.0],
        [1.0, -1.0, 1.0],
        [-1.0, -1.0, -3.0],
    ]
)
HAND_VIFS = (10.0, 5.0, 14.0)


def random_standardized(n, k, seed):
    x = np.random.default_rng(seed).normal(size=(n, k))
    x -= x.mean(axis=0)
    x /= x.std(axis=0)
    return x


class TestVifSingle:
    def test_hand_instance(self):
        for j, expected in enumerate(HAND_VIFS):
            assert vif_single(HAND_X, j) == pytest.approx(expected, rel=1e-9)

    def test_matches_inverse_correlation_diagonal(self):
        # For centered columns, VIF equals the diagonal of the inverse
        # correlation matrix; an independent route through np.corrcoef.
        x = random_standardized(500, 6, seed=11)
        x[:, 5] = 0.6 * x[:, 0] + x[:, 5] * 0.2
        expected = np.diag(np.linalg.inv(np.corrcoef(x.T)))
        got = [vif_single(x, j) for j in range(6)]
        assert np.allclose(got, expected, rtol=1e-8)

    def test_independent_columns_near_one(self):
        x = random_standardized(4000, 5, seed=1)
        for j in range(5):
            assert 1.0 <= vif_single(x, j) < 1.05

    def test_exact_duplicate_is_infinite(self):
        x = random_standardized(100, 2, seed=2)
        x = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
        assert vif_single(x, 0) == np.inf
        assert vif_single(x, 1) == np.inf
        assert np.isfinite(vif_single(x, 2))

    def test_constant_column_is_infinite(self):
        x = np.column_stack([np.zeros(10), np.arange(10.0)])
        assert vif_single(x, 0) == np.inf

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            vif_single(np.ones((5, 1)), 0)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=500))
    def test_scale_invariance(self, column, scale):
        x = random_standardized(60, 5, seed=7)
        scaled = x.copy()
        scaled[:, column] *= scale
        for j in range(5):
            assert vif_single(scaled, j) == pytest.approx(vif_single(x, j), rel=1e-6)


class TestMatrixRank:
    def test_full_rank(self):
        assert matrix_rank(random_standardized(50, 4, seed=3)) == 4

    def test_planted_deficiency(self):
        x = random_standardized(50, 4, seed=4)
        x[:, 3] = x[:, 0] + x[:, 1]
        assert matrix_rank(x) == 3

    def test_zero_matrix(self):
        assert matrix_rank(np.zeros((5, 3))) == 0


class TestSelectFeatures:
    def test_hand_instance_trace(self):
        report = select_on_rows(HAND_X, ["x1", "x2", "x3"])
        assert len(report.iterations) == 1
        step = report.iterations[0]
        assert step.iteration_index == 1
        assert step.excluded_feature == "x3"
        assert step.column_count == 3
        assert step.matrix_rank == 3
        assert step.vif_values["x1"] == pytest.approx(10.0, rel=1e-9)
        assert report.surviving_features == ("x1", "x2")
        assert report.final_rank == 2
        assert report.final_vif["x1"] == pytest.approx(1.0, abs=1e-12)
        assert report.final_vif["x2"] == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_to_earliest_column(self):
        base = random_standardized(200, 3, seed=5)
        x = np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 2]])
        report = select_on_rows(x, ["dup_a", "dup_b", "v1", "v2"])
        assert report.iterations[0].excluded_feature == "dup_a"
        assert "dup_b" in report.surviving_features

    def test_no_iterations_when_clean(self):
        x = random_standardized(500, 4, seed=6)
        report = select_on_rows(x, ["a", "b", "c", "d"])
        assert report.iterations == ()
        assert report.surviving_features == ("a", "b", "c", "d")
        assert report.final_rank == 4

    def test_deterministic(self):
        x = random_standardized(300, 6, seed=8)
        x[:, 4] = x[:, 0] - x[:, 1]
        names = [f"f{j}" for j in range(6)]
        a = select_on_rows(x, names)
        b = select_on_rows(x, names)
        assert to_plain(a) == to_plain(b)

    def test_single_surviving_feature_allowed(self):
        base = random_standardized(100, 1, seed=9)
        x = np.column_stack([base[:, 0], base[:, 0]])
        report = select_on_rows(x, ["a", "b"])
        assert report.surviving_features == ("b",)
        assert report.final_vif["b"] == 1.0

    def test_report_serializes_infinities(self):
        base = random_standardized(100, 2, seed=10)
        x = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
        report = select_on_rows(x, ["a", "b", "c"])
        payload = to_plain(report)
        assert payload["iterations"][0]["vif_values"]["a"] == "inf"


def oracle_selection(features, names, accept_below=5.0):
    """The elimination of ``select_features`` with every VIF and rank taken
    over all n rows: (steps, final VIFs, survivors, final rank), where each
    step is (excluded name, rank, VIFs)."""
    active = list(range(features.shape[1]))
    steps = []
    while True:
        current = features[:, active]
        k = len(active)
        vifs = [1.0] if k == 1 else [vif_single(current, j) for j in range(k)]
        rank = matrix_rank(current)
        named = {names[g]: v for g, v in zip(active, vifs)}
        if max(vifs) < accept_below:
            return steps, named, tuple(names[g] for g in active), rank
        if k == 1:
            raise EmptySurvivorSet()
        worst = int(np.argmax(vifs))
        steps.append((names[active[worst]], rank, named))
        del active[worst]


def assert_vifs_match(got, expected):
    assert list(got) == list(expected)
    for name, value in expected.items():
        if np.isinf(value):
            assert got[name] == np.inf, name
        else:
            assert got[name] == pytest.approx(value, rel=1e-9), name


# Planted structures, each on top of randomly mixed (correlated) columns.
PLANTS = ("full_rank", "duplicate", "combination", "near_finite", "near_inf", "zero", "wide")


def planted_set(plant, n, k, seed):
    rng = np.random.default_rng(seed)
    if plant == "wide":
        # Centering leaves n - 1 dimensions. From n >= 4 the rounding-level
        # singular value of the lost one stays well under the rank cutoff;
        # at n = 2 or 3 it crosses eps * max(n, k) * s0 in either route.
        n = int(rng.integers(4, 7))
        k = n + int(rng.integers(1, 4))
    x = rng.normal(size=(n, k)) @ (np.eye(k) + 0.7 * rng.normal(size=(k, k)))
    a, b, c = rng.choice(k, 3, replace=False)
    if plant == "duplicate":
        x[:, b] = x[:, a]
    elif plant == "combination":
        # Like distance_mm against program_time_s: an affine map of one
        # column, here with a second column mixed in.
        x[:, b] = 120.0 * x[:, a] - 0.5 * x[:, c] + 3.0
    elif plant in ("near_finite", "near_inf"):
        # 1 - R^2 of a, b and c is about delta^2: 1e-10 gives VIFs near
        # 1e10, 1e-18 lies below the eps cutoff. The deviation w is
        # orthogonal to every other column; otherwise the other columns'
        # VIFs would hang on the direction a - b + 0.5 c, which rounding
        # fixes only to eps / delta.
        delta = 1e-5 if plant == "near_finite" else 1e-9
        rest = np.column_stack([np.ones(n), np.delete(x, b, axis=1)])
        w = rng.normal(size=n)
        w -= rest @ np.linalg.lstsq(rest, w, rcond=None)[0]
        x[:, b] = x[:, a] + 0.5 * x[:, c] + delta * w / w.std()
    elif plant == "zero":
        x[:, b] = 0.0
    x -= x.mean(axis=0)
    scale = x.std(axis=0)
    return x / np.where(scale == 0.0, 1.0, scale)


def rounding_tie(vif_maps):
    """Whether two finite VIFs share the maximum to within rounding. Two
    columns alone always have equal VIFs; which of them goes is then up to
    the last bit of each route, not to the data."""
    for vifs in vif_maps:
        top = sorted(vifs.values(), reverse=True)[:2]
        if len(top) == 2 and np.isfinite(top[0]) and top[1] >= top[0] * (1 - 1e-6):
            return True
    return False


class TestAgainstRowOracle:
    """The R-factor screen against the regression over every row."""

    @settings(max_examples=200)
    @given(
        plant=st.sampled_from(PLANTS),
        n=st.integers(min_value=20, max_value=300),
        k=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # VIFs near 4e8: computed as 1 / (1 - R^2) the two routes parted by 4e-8
    # relative, the spacing of doubles just below 1.
    @example(plant="near_finite", n=20, k=3, seed=43685)
    def test_same_trace_as_row_oracle(self, plant, n, k, seed):
        x = planted_set(plant, n, k, seed)
        names = [f"f{j}" for j in range(x.shape[1])]
        try:
            steps, final_vif, survivors, final_rank = oracle_selection(x, names)
        except EmptySurvivorSet:
            with pytest.raises(EmptySurvivorSet):
                select_on_rows(x, names)
            return
        assume(not rounding_tie([vifs for _, _, vifs in steps]))
        report = select_on_rows(x, names)
        assert [(s.excluded_feature, s.matrix_rank) for s in report.iterations] == [
            (name, rank) for name, rank, _ in steps
        ]
        for step, (_, _, vifs) in zip(report.iterations, steps):
            assert_vifs_match(step.vif_values, vifs)
        assert report.surviving_features == survivors
        assert report.final_rank == final_rank
        assert_vifs_match(report.final_vif, final_vif)

    def test_tie_within_rounding_breaks_to_earliest_column(self):
        # After f0 leaves, f1 and f2 are the last pair above accept_below:
        # their VIFs are equal in exact arithmetic and differ here only in
        # the last bits (…878 against …885), which must not decide the order.
        x = planted_set("duplicate", 20, 3, seed=138)
        report = select_on_rows(x, ["f0", "f1", "f2"])
        assert [s.excluded_feature for s in report.iterations] == ["f0", "f1"]
        assert report.surviving_features == ("f2",)

    def test_cutoffs_count_the_rows_not_the_rows_of_r(self):
        # A dependence at 1e-14 lies between eps * k and eps * n. The n-row
        # oracle drops it from the rank and from the pseudoinverse, so the
        # R route must put n, not the k rows of R, in both cutoffs.
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1000, 3))
        x[:, 2] = x[:, 0] + 1e-14 * rng.normal(size=1000)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        step = select_on_rows(x, ["a", "b", "c"]).iterations[0]
        assert step.matrix_rank == matrix_rank(x) == 2
        assert step.vif_values["b"] == pytest.approx(vif_single(x, 1), rel=1e-9)

    def test_uncentered_column_keeps_the_centered_total(self):
        # A raw input sits off zero; the screen centers it on its pooled
        # mean, so each sst is taken about the mean, as in the oracle on the
        # centered columns.
        x = HAND_X + np.array([0.0, 0.0, 1.5])
        names = ["x1", "x2", "x3"]
        ds = make_dataset(
            np.column_stack([x, np.arange(4.0)]),
            names=[*names, "y"],
            kinds=["input"] * 3 + ["observable"],
        )
        snapshots = build_snapshots([ds], names, ["y"])
        _, report = screen_inputs(snapshots, VifConfig(accept_below=np.inf))
        centered = x - x.mean(axis=0)
        assert_vifs_match(report.final_vif, {n: vif_single(centered, j) for j, n in enumerate(names)})

    @pytest.mark.parametrize("plant", PLANTS)
    def test_planted_structure_lands_on_its_side_of_the_cutoff(self, plant):
        x = planted_set(plant, 200, 6, seed=12)
        k = x.shape[1]
        report = select_on_rows(x, [f"f{j}" for j in range(k)])
        first = report.iterations[0].vif_values if report.iterations else report.final_vif
        values = np.array(list(first.values()))
        expected = {"duplicate": 2, "combination": 3, "near_inf": 3, "zero": 1, "wide": k}
        assert np.isinf(values).sum() == expected.get(plant, 0)
        if plant == "near_finite":
            assert 1e9 < values.max() < 1e11


COLUMN_KINDS = ("free", "duplicate", "flag", "complement", "constant", "constant_per_experiment")


@st.composite
def screen_corpora(draw):
    """1-5 experiments whose inputs plant exact duplicates, complementary
    flags and constants (one value everywhere, or one per experiment), each
    column scaled by 1e-3 to 1e3 and offset; one free observable."""
    # From 20 rows, the rounding-level singular values of exact
    # dependencies stay well under the rank cutoff in either route.
    lengths = draw(
        st.lists(st.integers(2, 60), min_size=1, max_size=5).filter(lambda ls: sum(ls) >= 20)
    )
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=2, max_size=7))
    powers = draw(st.lists(st.integers(-3, 3), min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    experiment = np.repeat(np.arange(len(lengths)), lengths)
    columns, flag = [], None
    for kind, power in zip(kinds, powers):
        if kind == "duplicate" and columns:
            columns.append(columns[int(rng.integers(len(columns)))].copy())
            continue
        if kind == "complement" and flag is not None:
            column = 1.0 - flag
        elif kind in ("flag", "complement"):
            column = flag = (rng.random(n) < 0.5).astype(float)
        elif kind == "constant":
            column = np.full(n, rng.normal())
        elif kind == "constant_per_experiment":
            column = rng.normal(size=len(lengths))[experiment]
        else:
            column = rng.normal(size=n)
        columns.append(column * 10.0**power + rng.uniform(-5, 5) * 10.0**power)
    names = [f"u{j}" for j in range(len(columns))]
    data = np.column_stack([*columns, rng.normal(size=n)])
    datasets = [
        make_dataset(
            rows,
            names=[*names, "y"],
            kinds=["input"] * len(names) + ["observable"],
            experiment_id=f"e{e}",
        )
        for e, rows in enumerate(np.split(data, np.cumsum(lengths)[:-1]))
    ]
    return datasets, names


class TestScreenInputs:
    """The screen from snapshot summaries against the pooled walk over the rows."""

    @settings(max_examples=200, deadline=None)
    @given(screen_corpora())
    def test_same_screen_as_pooled_rows(self, corpus):
        datasets, names = corpus
        snapshots = build_snapshots(datasets, names, ["y"])
        try:
            constant, oracle = pooled_screen(datasets, names)
        except EmptySurvivorSet:
            with pytest.raises(EmptySurvivorSet):
                screen_inputs(snapshots, VifConfig())
            return
        assume(not rounding_tie([s.vif_values for s in oracle.iterations]))
        got_constant, report = screen_inputs(snapshots, VifConfig())
        assert got_constant == constant
        assert [(s.excluded_feature, s.matrix_rank) for s in report.iterations] == [
            (s.excluded_feature, s.matrix_rank) for s in oracle.iterations
        ]
        for step, expected in zip(report.iterations, oracle.iterations):
            assert_vifs_match(step.vif_values, expected.vif_values)
        assert report.surviving_features == oracle.surviving_features
        assert report.final_rank == oracle.final_rank
        assert_vifs_match(report.final_vif, oracle.final_vif)

    def test_offset_constants_center_exactly(self):
        # a and b are each one value per experiment, so centered they are
        # collinear: rank 3 of 4. Centering on a pooled mean leaves rounding
        # of the size of b's offset over its spread (about 500), which lifts
        # the rank to 4; the QR behind the intercept does not.
        rng = np.random.default_rng(0)
        names = ["a", "b", "f0", "f1"]
        datasets = [
            make_dataset(
                np.column_stack([np.full(m, a), np.full(m, b), rng.normal(size=(m, 3))]),
                names=[*names, "y"],
                kinds=["input"] * 4 + ["observable"],
                experiment_id=f"e{e}",
            )
            for e, (m, a, b) in enumerate(
                [(39, -41.1371051, -459.452654), (58, -24.4769302, -460.342118)]
            )
        ]
        _, report = screen_inputs(build_snapshots(datasets, names, ["y"]), VifConfig())
        _, oracle = pooled_screen(datasets, names)
        assert [(s.excluded_feature, s.matrix_rank) for s in report.iterations] == [("a", 3)]
        assert [(s.excluded_feature, s.matrix_rank) for s in oracle.iterations] == [("a", 3)]

    def test_peak_memory_is_a_sliver_of_the_corpus(self):
        # The screen reads the snapshot summaries: a few k x k factors, not
        # a pooled or standardized copy of the rows.
        rng = np.random.default_rng(21)
        inputs, observables = [f"u{j}" for j in range(21)], ["y0", "y1", "y2"]
        datasets = [
            make_dataset(
                rng.normal(size=(25_000, 24)),
                names=inputs + observables,
                kinds=["input"] * 21 + ["observable"] * 3,
                experiment_id=f"e{e}",
            )
            for e in range(8)
        ]
        snapshots = build_snapshots(datasets, inputs, observables)
        corpus_bytes = sum(ds.data.nbytes for ds in datasets)
        peak = traced_peak(lambda: screen_inputs(snapshots, VifConfig()))
        assert peak <= 0.05 * corpus_bytes
