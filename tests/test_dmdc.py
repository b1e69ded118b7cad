import json

import numpy as np
import pytest
from helpers import (
    ArraySnapshots,
    linear_recurrence_padded,
    make_dataset,
    row_fit_oracle,
    summarize_chunked,
    traced_peak,
    with_column,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dedsid import dmdc
from dedsid.dataset import StandardizationParams
from dedsid.dmdc import (
    StateSpaceModel,
    build_snapshots,
    fit,
    linear_recurrence,
    load_model,
    rollout,
    save_model,
)
from dedsid.errors import (
    ConfigError,
    CorruptFile,
    InsufficientPairs,
    NonFiniteSnapshots,
    SchemaMismatch,
    StaleArtifact,
    TooShort,
    VersionMismatch,
)
from dedsid.plant import gaussian_inputs, random_stable_plant, simulate

A_TRUE = np.array([[0.5, 0.1], [0.0, 0.8]])
B_TRUE = np.array([[1.0], [0.5]])


def simulate_pairs(a, b, y0, u_seq):
    """Roll the exact recurrence to produce consistent snapshot data."""
    y = [np.asarray(y0, dtype=float)]
    for u in u_seq:
        y.append(a @ y[-1] + b @ np.atleast_1d(u))
    y = np.asarray(y)
    u = np.asarray(u_seq, dtype=float).reshape(len(u_seq), -1)
    return y, u


def snapshots_from(y, u, rate=100.0):
    return ArraySnapshots.from_arrays(
        y_cur=y[:-1].T,
        y_next=y[1:].T,
        u_cur=u.T,
        observable_names=tuple(f"y{i+1}" for i in range(y.shape[1])),
        input_names=tuple(f"u{i+1}" for i in range(u.shape[1])),
        sample_rate_hz=rate,
    )


BLOCK = dmdc._QR_BLOCK_ROWS
_EPS = float(np.finfo(float).eps)


def svd_fit_oracle(snapshots, rank=None):
    """The economy SVD of the stacked snapshot matrix that the blocked QR replaced."""
    q = snapshots.y_cur.shape[0]
    omega = np.vstack([snapshots.y_cur, snapshots.u_cur])
    eta, s, zeta_t = np.linalg.svd(omega, full_matrices=False)
    numerical_rank = int(np.count_nonzero(s > _EPS * max(omega.shape) * s[0]))
    r = numerical_rank if rank is None else min(rank, numerical_rank)
    proj = (snapshots.y_next @ zeta_t[:r].T) / s[:r]
    return proj @ eta[:q, :r].T, proj @ eta[q:, :r].T, r


def random_arrays(q, p, n, seed, duplicate_input=False):
    rng = np.random.default_rng(seed)
    u_cur = rng.normal(size=(p, n))
    if duplicate_input:
        u_cur = np.vstack([u_cur, u_cur[:1]])
    return dict(y_cur=rng.normal(size=(q, n)), y_next=rng.normal(size=(q, n)), u_cur=u_cur)


def arrays_to_snapshots(y_cur, y_next, u_cur):
    return ArraySnapshots.from_arrays(
        y_cur=y_cur,
        y_next=y_next,
        u_cur=u_cur,
        observable_names=tuple(f"y{i}" for i in range(y_cur.shape[0])),
        input_names=tuple(f"u{i}" for i in range(u_cur.shape[0])),
        sample_rate_hz=100.0,
    )


def random_snapshots(q, p, n, seed, duplicate_input=False):
    return arrays_to_snapshots(**random_arrays(q, p, n, seed, duplicate_input))


def pair_count(k, which):
    """One of 1, BLOCK-1, BLOCK, BLOCK+1 and 2*BLOCK+1 pairs past the minimum
    k, or exactly on either side of the first two block boundaries."""
    past_minimum = [k + extra for extra in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)]
    return (past_minimum + [BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])[which]


class TestFit:
    def test_recovers_hand_instance_exactly(self):
        u_seq = [1.0, -1.0, 2.0, 0.0, 1.0, -2.0, 0.5]
        y, u = simulate_pairs(A_TRUE, B_TRUE, [1.0, -1.0], u_seq)
        model = fit(snapshots_from(y, u))
        assert np.allclose(model.A, A_TRUE, atol=1e-12)
        assert np.allclose(model.B, B_TRUE, atol=1e-12)

    def test_matches_normal_equations_on_noisy_data(self):
        # Dual route: the pseudoinverse fit must agree with the normal
        # equations whenever the latter are well conditioned.
        rng = np.random.default_rng(0)
        y_cur = rng.normal(size=(3, 400))
        u_cur = rng.normal(size=(2, 400))
        y_next = rng.normal(size=(3, 400))
        snaps = ArraySnapshots.from_arrays(
            y_cur=y_cur,
            y_next=y_next,
            u_cur=u_cur,
            observable_names=("y1", "y2", "y3"),
            input_names=("u1", "u2"),
            sample_rate_hz=100.0,
        )
        model = fit(snaps)
        omega = np.vstack([y_cur, u_cur])
        ab = y_next @ omega.T @ np.linalg.inv(omega @ omega.T)
        assert np.allclose(np.hstack([model.A, model.B]), ab, rtol=1e-8, atol=1e-10)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(1)
        y_cur = rng.normal(size=(2, 120))
        u_cur = rng.normal(size=(1, 120))
        y_next = rng.normal(size=(2, 120))
        snaps = ArraySnapshots.from_arrays(
            y_cur=y_cur,
            y_next=y_next,
            u_cur=u_cur,
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
        )
        model = fit(snaps)
        omega = np.vstack([y_cur, u_cur])
        best = np.linalg.norm(y_next - np.hstack([model.A, model.B]) @ omega)
        for _ in range(100):
            da = rng.normal(scale=1e-3, size=model.A.shape)
            db = rng.normal(scale=1e-3, size=model.B.shape)
            perturbed = np.hstack([model.A + da, model.B + db])
            assert np.linalg.norm(y_next - perturbed @ omega) >= best

    def test_input_permutation_permutes_b_columns(self):
        rng = np.random.default_rng(2)
        y_cur = rng.normal(size=(2, 200))
        u_cur = rng.normal(size=(3, 200))
        y_next = rng.normal(size=(2, 200))

        def build(u, names):
            return ArraySnapshots.from_arrays(
                y_cur=y_cur,
                y_next=y_next,
                u_cur=u,
                observable_names=("y1", "y2"),
                input_names=names,
                sample_rate_hz=100.0,
            )

        base = fit(build(u_cur, ("a", "b", "c")))
        perm = fit(build(u_cur[[2, 0, 1]], ("c", "a", "b")))
        assert np.allclose(perm.A, base.A, atol=1e-10)
        assert np.allclose(perm.B, base.B[:, [2, 0, 1]], atol=1e-10)

    def test_duplicate_input_records_rank_deficiency(self):
        rng = np.random.default_rng(3)
        y_cur = rng.normal(size=(2, 100))
        u = rng.normal(size=(1, 100))
        snaps = ArraySnapshots.from_arrays(
            y_cur=y_cur,
            y_next=rng.normal(size=(2, 100)),
            u_cur=np.vstack([u, u]),
            observable_names=("y1", "y2"),
            input_names=("u1", "u2"),
            sample_rate_hz=100.0,
        )
        model = fit(snaps)
        assert model.svd_rank_used == model.numerical_rank == 3  # q + p - 1

    def test_insufficient_pairs(self):
        rng = np.random.default_rng(4)
        snaps = ArraySnapshots.from_arrays(
            y_cur=rng.normal(size=(2, 2)),
            y_next=rng.normal(size=(2, 2)),
            u_cur=rng.normal(size=(1, 2)),
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
        )
        with pytest.raises(InsufficientPairs):
            fit(snaps)

    def test_requested_rank_caps_truncation(self):
        rng = np.random.default_rng(5)
        y_cur = rng.normal(size=(3, 300))
        snaps = ArraySnapshots.from_arrays(
            y_cur=y_cur,
            y_next=rng.normal(size=(3, 300)),
            u_cur=rng.normal(size=(2, 300)),
            observable_names=("y1", "y2", "y3"),
            input_names=("u1", "u2"),
            sample_rate_hz=100.0,
        )
        model = fit(snaps, rank=2)
        assert (model.svd_rank_used, model.numerical_rank) == (2, 5)

    @pytest.mark.parametrize("smallest, rank", [(1.5e-12, 2), (6e-12, 3)])
    def test_rank_cutoff_counts_every_pair(self, smallest, rank):
        # With n = 8 blocks of pairs the cutoff eps * n is 3.6e-12 (relative
        # to the largest singular value); the smallest value sits below or
        # above it, and above eps times one block's height either way.
        n = 8 * BLOCK
        rng = np.random.default_rng(12)
        orthonormal_rows = np.linalg.qr(rng.normal(size=(n, 3)))[0].T
        omega = np.array([[1.0], [0.5], [smallest]]) * orthonormal_rows
        snaps = ArraySnapshots.from_arrays(
            y_cur=omega[:2],
            y_next=rng.normal(size=(2, n)),
            u_cur=omega[2:],
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
        )
        assert fit(snaps).svd_rank_used == rank == svd_fit_oracle(snaps)[2]

    @pytest.mark.parametrize("rank", [0, -2])
    def test_rank_cap_below_one_named(self, rank):
        snaps = random_snapshots(2, 1, 50, seed=6)
        with pytest.raises(ConfigError, match=f"got {rank}"):
            fit(snaps, rank=rank)

    @pytest.mark.parametrize(
        "field, value",
        [("y_cur", np.nan), ("u_cur", np.nan), ("y_next", np.nan), ("y_next", np.inf)],
    )
    def test_non_finite_pairs_raise_named_error(self, field, value):
        # The bad pair sits in the second QR block, so it reaches R through
        # the carried factor as well as through its own block.
        arrays = random_arrays(2, 3, 2 * BLOCK + 1, seed=7)
        arrays[field][-1, BLOCK + 5] = value
        with pytest.raises(NonFiniteSnapshots):
            fit(arrays_to_snapshots(**arrays))


class TestFitAgainstSvd:
    shapes = dict(
        q=st.integers(1, 5),
        p=st.integers(1, 6),
        which=st.integers(0, 8),
        seed=st.integers(0, 2**31 - 1),
    )

    @given(**shapes)
    def test_coefficients_match(self, q, p, which, seed):
        snaps = random_snapshots(q, p, pair_count(q + p, which), seed)
        model = fit(snaps)
        a, b, r = svd_fit_oracle(snaps)
        scale = max(np.abs(a).max(), np.abs(b).max())
        assert np.abs(model.A - a).max() <= 1e-10 * scale
        assert np.abs(model.B - b).max() <= 1e-10 * scale
        assert model.svd_rank_used == r == q + p

    @given(cap=st.integers(1, 12), **shapes)
    def test_rank_cap_gives_same_rank(self, cap, q, p, which, seed):
        snaps = random_snapshots(q, p, pair_count(q + p, which), seed)
        assert fit(snaps, rank=cap).svd_rank_used == svd_fit_oracle(snaps, rank=cap)[2]

    @given(**shapes)
    def test_duplicate_input_records_same_rank(self, q, p, which, seed):
        # q + p + 1 columns, one of them a copy: the rank kept is one short.
        snaps = random_snapshots(q, p, pair_count(q + p + 1, which), seed, duplicate_input=True)
        assert fit(snaps).svd_rank_used == svd_fit_oracle(snaps)[2] == q + p


def fit_or_error(fn):
    """Result of ``fn()``, or ``InsufficientPairs`` if it raised that."""
    try:
        return fn()
    except InsufficientPairs:
        return InsufficientPairs


def random_corpus(q, p, lengths, seed, duplicate_input=False):
    """Datasets over one shuffled schema: q observables, p inputs, one spare."""
    rng = np.random.default_rng(seed)
    names = [f"y{i}" for i in range(q)] + [f"u{i}" for i in range(p)] + ["spare"]
    kinds = ["observable"] * q + ["input"] * p + ["input"]
    order = rng.permutation(len(names))
    datasets = []
    for e, rows in enumerate(lengths):
        data = rng.normal(loc=3.0, scale=2.0, size=(rows, len(names)))
        if duplicate_input and p > 1:
            data[:, q + 1] = data[:, q]
        datasets.append(
            make_dataset(
                data[:, order],
                names=[names[i] for i in order],
                kinds=[kinds[i] for i in order],
                experiment_id=f"e{e}",
            )
        )
    return datasets, names[q : q + p], names[:q]


SHIFT_ROWS = dmdc._SHIFT_ROWS


# A and B from per-experiment factors agree with the row oracle to this
# multiple of their largest entry.
ORACLE_RTOL = 1e-9


def ids_of(datasets):
    return [ds.experiment_id for ds in datasets]


class TestFitFromDatasets:
    """The fit from per-experiment factors against the row walk it replaced."""

    @given(
        q=st.integers(1, 4),
        p=st.integers(1, 5),
        lengths=st.lists(
            st.sampled_from([2, 2047, 2048, 2049, 2050, SHIFT_ROWS - 1, SHIFT_ROWS, SHIFT_ROWS + 1, SHIFT_ROWS + 2]),
            min_size=1,
            max_size=4,
        ),
        standardize_inputs=st.booleans(),
        standardize_observables=st.booleans(),
        rank=st.one_of(st.none(), st.integers(1, 12)),
        duplicate_input=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_row_oracle(
        self, q, p, lengths, standardize_inputs, standardize_observables, rank, duplicate_input, seed
    ):
        datasets, inputs, observables = random_corpus(q, p, lengths, seed, duplicate_input)
        expected = fit_or_error(
            lambda: row_fit_oracle(
                datasets, inputs, observables, standardize_inputs, standardize_observables, rank
            )
        )
        if expected is not InsufficientPairs:
            # Away from the rank cutoff both paths must make the same decision.
            s, cutoff = expected[4], _EPS * max(q + p, sum(lengths) - len(lengths))
            ratio = s / s[0] / cutoff
            assume(not np.any((ratio > 1e-2) & (ratio < 1e2)))
        got = fit_or_error(
            lambda: fit(
                build_snapshots(datasets, inputs, observables),
                rank,
                standardize_inputs,
                standardize_observables,
            )
        )
        if expected is InsufficientPairs:
            assert got is InsufficientPairs
            return
        a, b, r, numerical_rank, _, input_std, obs_std = expected
        scale = max(np.abs(a).max(), np.abs(b).max())
        assert np.abs(got.A - a).max() <= ORACLE_RTOL * scale
        assert np.abs(got.B - b).max() <= ORACLE_RTOL * scale
        assert got.svd_rank_used == r
        assert got.numerical_rank == numerical_rank
        for std, want in (
            (got.input_standardizer, input_std),
            (got.observable_standardizer, obs_std),
        ):
            assert (std is None) == (want is None)
            if want is not None:
                assert std.channels == want.channels
                assert np.allclose(std.mean, want.mean, rtol=1e-12, atol=0)
                assert np.allclose(std.scale, want.scale, rtol=1e-12, atol=0)

    def test_subset_fits_as_a_fresh_build(self):
        datasets, inputs, observables = random_corpus(2, 3, [40, 2049, 300, 2], seed=10)
        picked = [datasets[i] for i in (3, 1, 2)]
        part = build_snapshots(datasets, inputs, observables).subset(ids_of(picked))
        fresh = build_snapshots(picked, inputs, observables)
        assert part.pair_count == fresh.pair_count == 1 + 2048 + 299
        for standardize in (False, True):
            got = fit(part, None, standardize, standardize)
            want = fit(fresh, None, standardize, standardize)
            assert np.array_equal(got.A, want.A)
            assert np.array_equal(got.B, want.B)

    @pytest.mark.parametrize("role", ["observable", "input"])
    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_planted_raw_offset(self, role, offset):
        # Standardizing removes an offset in exact arithmetic, so the fit must
        # match the one on the same stored values less the offset (an exact
        # subtraction), and the row oracle. The pooled mean of the planted
        # column is a float64 near the offset, good to half an ulp of it, so
        # offset * eps sets the floor for any path; within 1/50 of it, the
        # pass loses no further digits (at 1e9 the row path is also ~5e-10).
        datasets, inputs, observables = random_corpus(2, 3, [3000, 2500, 4000], seed=11)
        name = observables[0] if role == "observable" else inputs[0]
        planted = [with_column(ds, name, ds.column(name) + offset) for ds in datasets]
        reference = [with_column(ds, name, ds.column(name) - offset) for ds in planted]
        got = fit(build_snapshots(planted, inputs, observables), None, True, True)
        want = fit(build_snapshots(reference, inputs, observables), None, True, True)
        a, b, *_ = row_fit_oracle(planted, inputs, observables, True, True)
        tol = offset * _EPS / 50 * max(np.abs(want.A).max(), np.abs(want.B).max())
        for other_a, other_b in ((want.A, want.B), (a, b)):
            assert np.abs(got.A - other_a).max() <= tol
            assert np.abs(got.B - other_b).max() <= tol

    def test_channel_constant_over_a_fold_pool(self):
        # 0.1 over 2,000 rows is a mean that np.mean does not hit exactly;
        # merged moments still see the channel as constant.
        datasets, inputs, observables = random_corpus(2, 3, [600, 700, 701, 800], seed=12)
        flat = inputs[1]
        datasets[:3] = [with_column(ds, flat, np.full(ds.row_count, 0.1)) for ds in datasets[:3]]
        snaps = build_snapshots(datasets, inputs, observables)
        # Constant over the pool, the channel's standardized column is zero:
        # the rank kept is q + p - 1.
        model = fit(snaps.subset(ids_of(datasets[:3])), None, True, True)
        assert model.input_standardizer.mean[1] == 0.1
        assert model.input_standardizer.scale[1] == 1.0
        assert model.svd_rank_used == 4
        assert fit(snaps, None, True, True).svd_rank_used == 5

    @pytest.mark.parametrize("standardize", [False, True])
    @pytest.mark.parametrize("role", ["observable", "input"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_last_row(self, value, role, standardize):
        datasets, inputs, observables = random_corpus(2, 3, [50, 80], seed=13)
        name = observables[1] if role == "observable" else inputs[2]
        bad = datasets[1].data.copy()
        bad[-1, datasets[1].index_of(name)] = value
        datasets[1] = datasets[1].with_data(bad)
        snaps = build_snapshots(datasets, inputs, observables)
        with pytest.raises(NonFiniteSnapshots):
            fit(snaps, None, standardize, standardize)
        # A fold without that experiment is unaffected.
        fit(snaps.subset(ids_of(datasets[:1])), None, standardize, standardize)

    @pytest.mark.parametrize("role", ["observable", "input"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_selected_channel_in_second_chunk(self, role, value):
        datasets, inputs, observables = random_corpus(2, 3, [50, SHIFT_ROWS + 100], seed=8)
        name = observables[1] if role == "observable" else inputs[2]
        bad = datasets[1].data.copy()
        bad[SHIFT_ROWS + 10, datasets[1].index_of(name)] = value
        datasets[1] = datasets[1].with_data(bad)
        snaps = build_snapshots(datasets, inputs, observables)
        with pytest.raises(NonFiniteSnapshots):
            fit(snaps)

    def test_nan_in_unselected_channel_ignored(self):
        datasets, inputs, observables = random_corpus(2, 3, [50, SHIFT_ROWS + 100], seed=9)
        clean = fit(build_snapshots(datasets, inputs, observables))
        spoiled = []
        for ds in datasets:
            data = ds.data.copy()
            data[::7, ds.index_of("spare")] = np.nan
            spoiled.append(ds.with_data(data))
        model = fit(build_snapshots(spoiled, inputs, observables))
        assert np.array_equal(model.A, clean.A)
        assert np.array_equal(model.B, clean.B)


    @pytest.mark.parametrize("standardize", [False, True])
    def test_narrowed_inputs_fit_as_a_pass_over_them(self, standardize):
        # select_inputs slices R's columns and keeps its rows; the fit's
        # stack-QR reduces them to what a pass over those inputs gives.
        datasets, inputs, observables = random_corpus(3, 6, [40, 2100, 300], seed=17)
        survivors = inputs[::-2]
        narrowed = build_snapshots(datasets, inputs, observables).select_inputs(survivors)
        direct = build_snapshots(datasets, survivors, observables)
        assert narrowed.input_names == direct.input_names
        for got, want in (
            (narrowed, direct),
            (narrowed.subset(["e2", "e0"]), direct.subset(["e2", "e0"])),
        ):
            a = fit(got, None, standardize, standardize)
            b = fit(want, None, standardize, standardize)
            assert np.allclose(a.A, b.A, rtol=1e-10, atol=1e-12)
            assert np.allclose(a.B, b.B, rtol=1e-10, atol=1e-12)
            assert a.svd_rank_used == b.svd_rank_used
            moments = zip(got.pooled_moments()[1:], want.pooled_moments()[1:])
            assert all(np.allclose(g, w, rtol=1e-12, atol=0) for g, w in moments)


class TestBuildSnapshots:
    def _ds(self, data, eid="e0", rate=100.0):
        return make_dataset(
            data, names=["u", "y"], kinds=["input", "observable"], rate=rate, experiment_id=eid
        )

    def test_pair_counts_concatenate(self):
        rng = np.random.default_rng(6)
        a = self._ds(rng.normal(size=(10, 2)), "a")
        b = self._ds(rng.normal(size=(7, 2)), "b")
        snaps = build_snapshots([a, b], ["u"], ["y"])
        assert snaps.pair_count == 9 + 6

    def test_pairs_are_time_shifted(self):
        # R^T R is the Gram matrix of the rows [1, y_t - c, u_t - c, y_t+1 - c].
        data = np.column_stack([np.arange(5.0), 10 + np.arange(5.0)])
        snaps = build_snapshots([self._ds(data)], ["u"], ["y"])
        c_y, c_u = snaps.shifts[0]
        t = np.arange(4.0)
        rows = np.column_stack([np.ones(4), 10 + t - c_y, t - c_u, 11 + t - c_y])
        factor = snaps.factors[0]
        assert np.allclose(factor.T @ factor, rows.T @ rows, rtol=0, atol=1e-12)
        assert np.allclose(snaps.pooled_moments()[1], [12.0, 2.0], rtol=0, atol=1e-12)

    def test_rate_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        a = self._ds(rng.normal(size=(5, 2)), "a", rate=100.0)
        b = self._ds(rng.normal(size=(5, 2)), "b", rate=50.0)
        with pytest.raises(SchemaMismatch):
            build_snapshots([a, b], ["u"], ["y"])

    def test_too_short_rejected(self):
        a = self._ds(np.ones((1, 2)))
        with pytest.raises(TooShort):
            build_snapshots([a], ["u"], ["y"])


class TestSummarize:
    """The pass that writes each QR block from the rows, against the chunked
    gather it replaced."""

    @given(
        q=st.integers(1, 4),
        p=st.integers(0, 5),
        # Around block boundaries, and around the factor's width
        # w = 1 + 2q + p: fewer than w pairs leave a short R factor.
        pairs=st.sampled_from(
            [1, "w - 1", "w", "w + 1", 2046, 2047, 2048, 2049, 32766, 32767, 32768, 32769]
        ),
        layout=st.sampled_from(["C", "F", "strided"]),
        spoil=st.sampled_from([None, "first", "middle", "last"]),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bit_identical_to_chunked_oracle(self, q, p, pairs, layout, spoil, value, seed):
        rng = np.random.default_rng(seed)
        if isinstance(pairs, str):
            pairs = 1 + 2 * q + p + {"w - 1": -1, "w": 0, "w + 1": 1}[pairs]
        rows, width = pairs + 1, q + p + 1
        data = rng.normal(loc=rng.normal(scale=1e3, size=width), size=(3 * rows, width))
        data = data[::3] if layout == "strided" else data[:rows]
        if layout == "F":
            data = np.asfortranarray(data)
        columns = list(rng.permutation(width)[: q + p])
        if spoil is not None:
            # A row of the first QR block, a middle row of a middle block, or
            # the last row, which only the moments and the last pair read.
            middle = rows // 2 // BLOCK * BLOCK + BLOCK // 2
            row = {
                "first": rng.integers(min(rows, BLOCK)),
                "middle": min(middle, rows - 1),
                "last": rows - 1,
            }[spoil]
            data[row, columns[rng.integers(q + p)]] = value
        got = dmdc._summarize(data[:-1], data[1:], columns, q)
        want = summarize_chunked(data[:-1], data[1:], columns, q)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        if spoil is not None:
            names = [f"c{j}" for j in columns]
            snaps = build_snapshots([make_dataset(data)], names[q:], names[:q])
            with pytest.raises(NonFiniteSnapshots):
                snaps.require_finite()

    def test_one_in_place_lapack_call_per_block(self, monkeypatch):
        # Each block is factored by dgeqrf in the work array; the copying
        # np.linalg.qr wrapper is not called at all.
        calls, dgeqrf, qr = [], dmdc.lapack_lite.dgeqrf, np.linalg.qr
        monkeypatch.setattr(
            dmdc.lapack_lite, "dgeqrf", lambda *a: calls.append("dgeqrf") or dgeqrf(*a)
        )
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append("qr") or qr(*a, **k))
        lengths = [2, 9, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 1, 3 * BLOCK + 2]
        datasets, inputs, observables = random_corpus(2, 3, lengths, seed=15)
        build_snapshots(datasets, inputs, observables)
        assert calls == ["dgeqrf"] * sum(-(-(m - 1) // BLOCK) for m in lengths)

    def test_peak_memory_independent_of_length(self):
        # No experiment's rows are copied whole: the pass copies the shift
        # window once and works block by block, so its peak does not grow
        # with m. The rows are C-ordered, as ingest and simulate make them
        # (`take` copies a non-contiguous window once more).
        peaks = []
        for rows in (100_000, 400_000):
            datasets, inputs, observables = random_corpus(3, 20, [rows], seed=14)
            datasets = [ds.with_data(np.ascontiguousarray(ds.data)) for ds in datasets]
            peaks.append(traced_peak(lambda: build_snapshots(datasets, inputs, observables)))
            del datasets
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
        assert max(peaks) < 10 * 2**20


class TestRollout:
    def test_hand_oracle(self):
        model = StateSpaceModel(
            A=np.array([[0.5, 0.0], [0.0, 2.0]]),
            B=np.array([[1.0], [1.0]]),
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
            svd_rank_used=3,
        )
        out = rollout(model, [1.0, 1.0], np.ones((1, 3)))
        assert np.allclose(out.T, [[1.5, 3.0], [1.75, 7.0], [1.875, 15.0]], atol=1e-14)

    def test_matches_recurrence(self):
        rng = np.random.default_rng(8)
        u_seq = rng.normal(size=(30, 1))
        y, u = simulate_pairs(A_TRUE, B_TRUE, [0.3, -0.2], u_seq)
        model = StateSpaceModel(
            A=A_TRUE,
            B=B_TRUE,
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
            svd_rank_used=3,
        )
        out = rollout(model, y[0], u.T)
        assert np.allclose(out.T, y[1:], atol=1e-12)

    def test_peak_memory_below_one_input_copy(self):
        # The channel blocks are views of the record, so the rollout
        # allocates its (q, T) results and scan, never a copy of the inputs.
        spec = random_stable_plant(3, 21, seed=5, radius=0.9)
        inputs = gaussian_inputs(list(spec.input_names), 200_000, 100.0, seed=6)
        ds = simulate(spec, inputs, seed=7).dataset
        model = StateSpaceModel(
            A=spec.A,
            B=spec.B,
            observable_names=spec.observable_names,
            input_names=spec.input_names,
            sample_rate_hz=100.0,
            svd_rank_used=24,
        )
        obs, inp = spec.observable_names, spec.input_names
        peak = traced_peak(
            lambda: rollout(model, ds.matrix_for(obs)[0], ds.matrix_for(inp)[:-1].T)
        )
        assert peak < len(inp) * (ds.row_count - 1) * 8

    def test_peak_memory_below_1_3_outputs(self):
        # The drive u^T B^T, which the scan overwrites in place, its
        # chunk-entry states and two blocks: 1.18 outputs, bounded with a
        # 10% margin.
        model = random_model(3, 2, 0.9, 17)
        rng = np.random.default_rng(18)
        u = rng.normal(size=(2, 2**20 + 3))
        peak = traced_peak(lambda: rollout(model, rng.normal(size=3), u))
        assert peak < 1.3 * 3 * u.shape[1] * 8

    def test_superposition(self):
        rng = np.random.default_rng(9)
        model = StateSpaceModel(
            A=A_TRUE,
            B=B_TRUE,
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
            svd_rank_used=3,
        )
        y0a, y0b = rng.normal(size=2), rng.normal(size=2)
        ua, ub = rng.normal(size=(1, 20)), rng.normal(size=(1, 20))
        combined = rollout(model, y0a + y0b, ua + ub)
        split = rollout(model, y0a, ua) + rollout(model, y0b, ub)
        assert np.allclose(combined, split, atol=1e-9)

    def test_zero_steps(self):
        model = StateSpaceModel(
            A=A_TRUE,
            B=B_TRUE,
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
            svd_rank_used=3,
        )
        assert rollout(model, [1.0, 2.0], np.zeros((1, 0))).shape == (2, 0)


def loop_oracle(a, drive, y0):
    """The per-step recurrence the chunked kernel replaces."""
    out = np.empty_like(drive)
    y = y0
    for t in range(drive.shape[0]):
        y = a @ y + drive[t]
        out[t] = y
    return out


def random_model(q, p, radius, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(q, q))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    return StateSpaceModel(
        A=a,
        B=rng.normal(size=(q, p)),
        observable_names=tuple(f"y{i}" for i in range(q)),
        input_names=tuple(f"u{i}" for i in range(p)),
        sample_rate_hz=100.0,
        svd_rank_used=q + p,
    )


class TestLinearRecurrence:
    def _check(self, q, p, steps, radius, seed, rel_tol):
        model = random_model(q, p, radius, seed)
        rng = np.random.default_rng(seed + 1)
        y0 = rng.normal(size=q)
        u = rng.normal(size=(p, steps))
        expected = loop_oracle(model.A, (model.B @ u).T, y0)
        got = rollout(model, y0, u).T
        assert got.shape == (steps, q)
        finite = np.isfinite(expected)
        assert np.all(np.isfinite(got)[finite])
        scale = np.max(np.abs(expected), initial=0.0)
        assert np.max(np.abs(got - expected), initial=0.0) <= rel_tol * scale

    @given(
        q=st.integers(1, 5),
        p=st.integers(1, 4),
        steps=st.integers(0, 400),
        radius=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_loop_inside_unit_circle(self, q, p, steps, radius, seed):
        self._check(q, p, steps, radius, seed, 1e-12)

    @given(
        q=st.integers(1, 5),
        p=st.integers(1, 4),
        steps=st.integers(0, 400),
        radius=st.floats(1.0, 1.05, exclude_min=True),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_loop_outside_unit_circle(self, q, p, steps, radius, seed):
        self._check(q, p, steps, radius, seed, 1e-10)

    @pytest.mark.parametrize("steps", [0, 1, 2, 7, 8, 9, 63, 64, 65, 512, 513, 4097])
    def test_chunk_boundaries(self, steps):
        self._check(3, 2, steps, 0.95, steps, 1e-12)

    @pytest.mark.parametrize("unstable_mode_driven", [False, True])
    def test_overflowing_powers_shorten_chunks(self, unstable_mode_driven):
        # A^6 overflows, so the kernel falls back to chunks of 5. Undriven,
        # the unstable mode stays at zero and the loop is finite throughout;
        # driven, the loop overflows too. Wherever the loop stays finite the
        # kernel must too, and agree with it.
        a = np.array([[0.5, 0.1], [0.0, 1e60]])
        drive = np.zeros((400, 2))
        drive[:, 0] = 1.0
        y0 = np.array([1.0, 0.0])
        if unstable_mode_driven:
            drive[:, 1] = 1.0
            y0[1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            expected = loop_oracle(a, drive, y0)
            got = linear_recurrence(a, drive, y0)
        finite = np.isfinite(expected)
        assert finite.sum() > 4
        assert finite.all() or unstable_mode_driven
        assert np.all(np.isfinite(got)[finite])
        assert np.allclose(got[finite], expected[finite], rtol=1e-15, atol=0.0)


# Steps per block of the scan's matmuls at the top level, with q = 3.
SPAN = dmdc._SCAN_BLOCK * dmdc._SCAN_CHUNK


def drive_in(layout: str, values: np.ndarray) -> np.ndarray:
    """``values``, a (S, T, q) drive, as a C-ordered array, as the transpose
    of a (S, q, T) array, or as a view that skips a column of a wider one."""
    if layout == "contiguous":
        return values
    if layout == "transposed":
        return np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1)
    wide = np.zeros(values.shape[:2] + (values.shape[2] + 1,))
    wide[:, :, 1:] = values
    return wide[:, :, 1:]


class TestScanMatchesPaddedOracle:
    """The blocked kernel against the one it replaced, which padded a copy of
    the whole drive: the same bits for any length, batch and layout."""

    def _check(self, a, steps, batch, layout, seed):
        rng = np.random.default_rng(seed)
        q = a.shape[0]
        values = rng.normal(size=(batch, steps, q))
        drive = drive_in(layout, values)
        y0 = rng.normal(size=(batch, q))
        got = linear_recurrence(a, drive_in(layout, values.copy()), y0)
        want = linear_recurrence_padded(a, drive, y0)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        if batch == 1:
            assert np.array_equal(linear_recurrence(a, drive[0], y0[0]), want[0])

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "steps", [0, 1, 7, 8, 9, SPAN - 1, SPAN, SPAN + 1, SPAN + 9, 2 * SPAN + 3]
    )
    def test_block_boundaries(self, steps, batch, layout):
        self._check(random_model(3, 1, 0.97, 20).A, steps, batch, layout, steps)

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_a_million_steps(self, layout):
        # One sequence only, to bound the test's memory: several blocks at
        # the top level and at the carry's first level.
        self._check(random_model(3, 1, 0.99, 21).A, 10**6 - 1, 1, layout, 22)

    @given(
        q=st.integers(1, 8),
        steps=st.sampled_from([1, 2, SPAN // 3, SPAN // 2, 2 * SPAN]).flatmap(
            lambda base: st.integers(max(0, base - 17), base + 17)
        ),
        batch=st.integers(1, 3),
        layout=st.sampled_from(["contiguous", "transposed", "strided"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_any_width(self, q, steps, batch, layout, seed):
        self._check(random_model(q, 1, 0.97, seed).A, steps, batch, layout, seed)

    @pytest.mark.parametrize("top", [1e60, 1e10])
    @pytest.mark.parametrize("steps", [400, 5 * dmdc._SCAN_BLOCK + 1, 2 * SPAN + 7])
    def test_overflowing_operator(self, top, steps):
        # With 1e60 the top level shortens its chunks to 5, with 1e10 the
        # carry does one level down; both trajectories overflow.
        a = np.array([[0.5, 0.1], [0.0, top]])
        drive = np.ones((3, steps, 2))
        y0 = np.ones((3, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            got = linear_recurrence(a, drive.copy(), y0)
            want = linear_recurrence_padded(a, drive, y0)
        assert not np.isfinite(want).all()
        assert np.array_equal(got, want, equal_nan=True)

    def test_peak_memory_below_0_2_outputs(self):
        # The drive is the output, so only the chunk-entry states (1/8 of
        # it) and two blocks are allocated: 0.18 outputs, bounded with a
        # 13% margin.
        rng = np.random.default_rng(23)
        drive = rng.normal(size=(2**20 + 3, 3))
        a, y0 = random_model(3, 1, 0.9, 24).A, rng.normal(size=3)
        assert traced_peak(lambda: linear_recurrence(a, drive, y0)) < 0.2 * drive.nbytes


class TestScanInPlace:
    """A writable C-ordered float64 drive is overwritten by the states and
    returned; any other drive is copied once and left as it was."""

    @pytest.mark.parametrize("batch", [None, 3])
    def test_writable_c_ordered_drive_is_the_result(self, batch):
        rng = np.random.default_rng(25)
        shape = (SPAN + 9, 3) if batch is None else (batch, SPAN + 9, 3)
        drive, y0 = rng.normal(size=shape), rng.normal(size=shape[:-2] + (3,))
        a = random_model(3, 1, 0.97, 26).A
        want = linear_recurrence_padded(a, drive, y0)
        got = linear_recurrence(a, drive, y0)
        assert np.shares_memory(got, drive)
        assert np.array_equal(drive, want)

    @pytest.mark.parametrize("layout", ["transposed", "strided", "read-only", "integer"])
    def test_other_drive_is_left_as_it_was(self, layout):
        rng = np.random.default_rng(27)
        if layout == "integer":
            drive = rng.integers(-100, 100, size=(3, 1001, 3))
        elif layout == "read-only":
            drive = rng.normal(size=(3, 1001, 3))
            drive.flags.writeable = False
        else:
            drive = drive_in(layout, rng.normal(size=(3, 1001, 3)))
        before, y0 = drive.copy(), rng.normal(size=(3, 3))
        a = random_model(3, 1, 0.97, 28).A
        got = linear_recurrence(a, drive, y0)
        assert not np.shares_memory(got, drive)
        assert np.array_equal(drive, before)
        assert np.array_equal(got, linear_recurrence_padded(a, drive, y0))


class TestBatchedLinearRecurrence:
    """A leading batch axis runs several drives through one kernel call."""

    def test_unequal_lengths_padded_into_one_batch(self):
        model = random_model(3, 2, 0.97, 7)
        rng = np.random.default_rng(8)
        lengths = [1, 9, 250, 1003]
        drives = [(model.B @ rng.normal(size=(2, n))).T for n in lengths]
        y0 = rng.normal(size=(len(lengths), 3))
        padded = np.zeros((len(lengths), max(lengths), 3))
        for row, d in zip(padded, drives):
            row[: len(d)] = d
        got = linear_recurrence(model.A, padded, y0)
        assert got.shape == padded.shape
        for i, d in enumerate(drives):
            expected = loop_oracle(model.A, d, y0[i])
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got[i, : len(d)] - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("steps", [0, 1])
    def test_zero_and_one_step(self, steps):
        model = random_model(2, 1, 0.9, 9)
        rng = np.random.default_rng(10)
        drive = rng.normal(size=(3, steps, 2))
        y0 = rng.normal(size=(3, 2))
        got = linear_recurrence(model.A, drive.copy(), y0)
        assert got.shape == (3, steps, 2)
        for i in range(3):
            assert np.allclose(got[i], loop_oracle(model.A, drive[i], y0[i]), rtol=1e-15, atol=0)

    def test_long_sequence_recurses_several_levels(self):
        # 1e5 steps: the chunk-entry carry is itself a recurrence, solved by
        # the kernel at every level until one chunk is left.
        model = random_model(3, 2, 0.99, 11)
        rng = np.random.default_rng(12)
        drive = (model.B @ rng.normal(size=(2, 100_000))).T
        y0 = rng.normal(size=3)
        expected = loop_oracle(model.A, drive, y0)
        got = linear_recurrence(model.A, np.stack([drive, -drive]), np.stack([y0, -y0]))
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got[0] - expected)) <= 1e-12 * scale
        assert np.max(np.abs(got[1] + expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("unstable_mode_driven", [False, True])
    def test_overflow_first_appears_at_a_deeper_level(self, unstable_mode_driven):
        # A^16 is finite, so the top level keeps its chunks; the carry runs on
        # a power of A whose own powers overflow, so it must shorten its
        # chunks one level down. Judged as in the top-level overflow test; a
        # sequence that overflows leaves the other one in its batch finite.
        a = np.array([[0.5, 0.1], [0.0, 1e10]])
        assert np.isfinite(np.linalg.matrix_power(a, 16)).all()
        drive = np.zeros((2, 5000, 2))
        drive[:, :, 0] = 1.0
        y0 = np.array([[1.0, 0.0], [-2.0, 0.0]])
        if unstable_mode_driven:
            drive[1, :, 1] = 1.0
            y0[1, 1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.linalg.matrix_power(a, 40)).all()
            batch = linear_recurrence(a, drive.copy(), y0)
            for i, got in enumerate(batch):
                expected = loop_oracle(a, drive[i], y0[i])
                finite = np.isfinite(expected)
                assert finite.sum() > 4
                assert finite.all() or (unstable_mode_driven and i == 1)
                assert np.all(np.isfinite(got)[finite])
                assert np.allclose(got[finite], expected[finite], rtol=1e-15, atol=0.0)


# Finite float64 values, the edges of the range listed first: the smallest
# subnormal, a subnormal near the normal range, +-1e300 and -0.0.
FLOAT64 = st.sampled_from([5e-324, -2.5e-308, 1e300, -1e300, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)
SCALES = st.sampled_from([5e-324, 1e300]) | st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def state_space_models(draw):
    q, p = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    observables = tuple(f"y{i}" for i in range(q))
    inputs = tuple(f"u{i}" for i in range(p))

    def standardizer(names):
        n = len(names)
        return st.none() | st.builds(
            StandardizationParams,
            st.just(names),
            arrays(np.float64, n, elements=FLOAT64),
            arrays(np.float64, n, elements=SCALES),
        )

    return StateSpaceModel(
        A=draw(arrays(np.float64, (q, q), elements=FLOAT64)),
        B=draw(arrays(np.float64, (q, p), elements=FLOAT64)),
        observable_names=observables,
        input_names=inputs,
        sample_rate_hz=draw(FLOAT64),
        svd_rank_used=draw(st.integers(1, q + p)),
        input_standardizer=draw(standardizer(inputs)),
        observable_standardizer=draw(standardizer(observables)),
        condition_number=draw(st.none() | FLOAT64),
        numerical_rank=draw(st.none() | st.integers(1, q + p)),
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestModelFile:
    def _model(self):
        return StateSpaceModel(
            A=A_TRUE,
            B=B_TRUE,
            observable_names=("y1", "y2"),
            input_names=("u1",),
            sample_rate_hz=100.0,
            svd_rank_used=3,
        )

    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        back = load_model(path)
        assert np.array_equal(back.A, A_TRUE)
        assert np.array_equal(back.B, B_TRUE)
        assert back.observable_names == ("y1", "y2")
        assert back.input_names == ("u1",)
        assert back.sample_rate_hz == 100.0

    @settings(max_examples=200)
    @given(model=state_space_models())
    def test_any_model_round_trips_bit_for_bit(self, tmp_path_factory, model):
        path = tmp_path_factory.getbasetemp() / "model_round_trip.json"
        save_model(model, path)
        back = load_model(path)
        assert same_bits(back.A, model.A) and same_bits(back.B, model.B)
        for side in ("input_standardizer", "observable_standardizer"):
            got, want = getattr(back, side), getattr(model, side)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.channels == want.channels
                assert same_bits(got.mean, want.mean) and same_bits(got.scale, want.scale)
        for name in (
            "observable_names", "input_names", "sample_rate_hz", "svd_rank_used", "numerical_rank"
        ):
            assert getattr(back, name) == getattr(model, name)
        if model.condition_number is None:
            assert back.condition_number is None
        else:
            assert same_bits(np.float64(back.condition_number), np.float64(model.condition_number))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_provenance_checked_after_version(self, tmp_path):
        run = {"config_sha256": "abc", "seed": 3, "inputs": {"schema": "5c", "e1": "9f"}}
        path = tmp_path / "model.json"
        save_model(self._model(), path, run)
        assert np.array_equal(load_model(path, run).A, A_TRUE)
        with pytest.raises(StaleArtifact):
            load_model(path, {**run, "seed": 4})
        with pytest.raises(StaleArtifact, match=r"built from other inputs \(e1 differ\)"):
            load_model(path, {**run, "inputs": {"schema": "5c", "e1": "0a"}})
        payload = json.loads(path.read_text())
        del payload["provenance"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StaleArtifact):
            load_model(path, run)
        payload["version"] = 1  # as written before models carried provenance
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatch):
            load_model(path, run)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_truncated_matrix_rejected(self, tmp_path):
        # A matrix is nested lists of numbers: a short row or a string entry
        # is refused, naming the key.
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        saved = json.loads(path.read_text())
        for key, value, got in (
            ("A", [[0.5, 0.1], [0.0]], r"\[0.5, 0.1\]"),
            ("B", [[1.0], ["0.5"]], "'0.5'"),
        ):
            path.write_text(json.dumps({**saved, "model": {**saved["model"], key: value}}))
            message = f"key 'model.{key}' must be a finite number, got {got}"
            with pytest.raises(CorruptFile, match=message):
                load_model(path)
