import json

import numpy as np
import pytest
from helpers import make_dataset
from hypothesis import given
from hypothesis import strategies as st

from dedsid.dmdc import (
    SnapshotSet,
    StateSpaceModel,
    build_snapshots,
    fit,
    linear_recurrence,
    load_model,
    rollout,
    save_model,
)
from dedsid.errors import (
    CorruptFile,
    InsufficientPairs,
    RankDeficiencyWarning,
    SchemaMismatch,
    TooShort,
    VersionMismatch,
)

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
    return SnapshotSet(
        y_cur=y[:-1].T,
        y_next=y[1:].T,
        u_cur=u.T,
        observable_names=tuple(f"y{i+1}" for i in range(y.shape[1])),
        input_names=tuple(f"u{i+1}" for i in range(u.shape[1])),
        sample_rate_hz=rate,
    )


class TestFit:
    def test_recovers_hand_instance_exactly(self):
        u_seq = [1.0, -1.0, 2.0, 0.0, 1.0, -2.0, 0.5]
        y, u = simulate_pairs(A_TRUE, B_TRUE, [1.0, -1.0], u_seq)
        model = fit(snapshots_from(y, u))
        assert np.allclose(model.A, A_TRUE, atol=1e-12)
        assert np.allclose(model.B, B_TRUE, atol=1e-12)

    def test_matches_normal_equations_on_noisy_data(self):
        # Dual route: the SVD pseudoinverse fit must agree with the normal
        # equations whenever the latter are well conditioned.
        rng = np.random.default_rng(0)
        y_cur = rng.normal(size=(3, 400))
        u_cur = rng.normal(size=(2, 400))
        y_next = rng.normal(size=(3, 400))
        snaps = SnapshotSet(
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
        snaps = SnapshotSet(
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
            return SnapshotSet(
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

    def test_duplicate_input_warns_rank_deficient(self):
        rng = np.random.default_rng(3)
        y_cur = rng.normal(size=(2, 100))
        u = rng.normal(size=(1, 100))
        snaps = SnapshotSet(
            y_cur=y_cur,
            y_next=rng.normal(size=(2, 100)),
            u_cur=np.vstack([u, u]),
            observable_names=("y1", "y2"),
            input_names=("u1", "u2"),
            sample_rate_hz=100.0,
        )
        with pytest.warns(RankDeficiencyWarning):
            model = fit(snaps)
        assert model.svd_rank_used == 3

    def test_insufficient_pairs(self):
        rng = np.random.default_rng(4)
        snaps = SnapshotSet(
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
        snaps = SnapshotSet(
            y_cur=y_cur,
            y_next=rng.normal(size=(3, 300)),
            u_cur=rng.normal(size=(2, 300)),
            observable_names=("y1", "y2", "y3"),
            input_names=("u1", "u2"),
            sample_rate_hz=100.0,
        )
        import warnings

        with warnings.catch_warnings():
            # A requested cap is a deliberate choice, not a data defect.
            warnings.simplefilter("error", RankDeficiencyWarning)
            model = fit(snaps, rank=2)
        assert model.svd_rank_used == 2


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
        data = np.column_stack([np.arange(5.0), 10 + np.arange(5.0)])
        snaps = build_snapshots([self._ds(data)], ["u"], ["y"])
        assert np.array_equal(snaps.y_cur.ravel(), [10, 11, 12, 13])
        assert np.array_equal(snaps.y_next.ravel(), [11, 12, 13, 14])
        assert np.array_equal(snaps.u_cur.ravel(), [0, 1, 2, 3])

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

    @pytest.mark.parametrize("steps", [0, 1, 2, 63, 64, 65, 4097])
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

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_truncated_matrix_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        payload = json.loads(path.read_text())
        payload["A"]["data"] = payload["A"]["data"][: len(payload["A"]["data"]) // 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptFile):
            load_model(path)
