"""Linear state-space surrogate fitting from snapshot pairs.

The model is y[t+1] = A y[t] + B u[t] with observables treated directly as
state (identity output map, no feedthrough): with gappy sensing there is no
separate latent state worth estimating. A and B come from the small R factor
of a blocked tall-skinny QR of the snapshot pairs, read straight from each
experiment's rows, and one SVD of its leading (q+p)x(q+p) block; no
reduced-order projection is applied unless a rank cap is requested, because
the feature count is tiny next to the sample count and full rank keeps the
operator interpretable per channel.
"""

from __future__ import annotations

import base64
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import check_experiments, check_provenance, read_json_object, write_json
from .dataset import StandardizationParams, TimeSeriesDataset
from .errors import (
    ConfigError,
    CorruptFile,
    DimensionMismatch,
    InsufficientPairs,
    NonFiniteSnapshots,
    RankDeficiencyWarning,
    SchemaMismatch,
    TooShort,
    VersionMismatch,
)

MODEL_FORMAT = "dedsid.model"
MODEL_VERSION = 2

_EPS = float(np.finfo(float).eps)
# Pairs per QR step of fit: the block plus the carried R factor stays in
# cache, and the per-call overhead is paid once per thousands of pairs.
_QR_BLOCK_ROWS = 2048
# Pairs per gather from an experiment's rows. Gathering one QR block at a
# time leaves only small frees between the QR calls' own copies, so glibc
# trims and re-faults the heap around every call (46k-86k minor faults per
# 1e6-pair fit, against ~4k with chunks); a 16-block chunk of 24 channels is
# ~6 MB, under glibc's 32 MB cap on its trim threshold.
_CHUNK_ROWS = 16 * _QR_BLOCK_ROWS
# Steps per chunk of linear_recurrence: 8 ran fastest of 4-32 on 1e6 steps
# and on batches of 8 x 70-3,500 steps (q = 3, one BLAS thread).
_SCAN_CHUNK = 8


@dataclass(frozen=True)
class SnapshotSet:
    """Where the snapshot pairs live: row views of each experiment, not copies.

    Each segment is a pair of equally long row arrays ``(current, following)``;
    for an experiment they are the views ``data[:-1]`` and ``data[1:]``, so
    pair t is y and u at step t with y at step t + 1, and pairs never
    straddle experiment boundaries. ``build_snapshots`` enforces one channel
    schema, so every segment shares one column layout: ``observable_columns``
    pick y from both arrays and ``input_columns`` pick u from ``current``.
    ``fit`` gathers the pairs chunk by chunk and applies the optional
    standardizers to what it gathers; the model carries them along.
    """

    segments: tuple[tuple[np.ndarray, np.ndarray], ...]
    observable_columns: tuple[int, ...]
    input_columns: tuple[int, ...]
    observable_names: tuple[str, ...]
    input_names: tuple[str, ...]
    sample_rate_hz: float
    input_standardizer: StandardizationParams | None = None
    observable_standardizer: StandardizationParams | None = None

    def __post_init__(self):
        for current, following in self.segments:
            if following.shape[0] != current.shape[0]:
                raise DimensionMismatch("following rows differ in count from current rows")
        if len(self.observable_names) != len(self.observable_columns):
            raise DimensionMismatch("observable name count differs from state rows")
        if len(self.input_names) != len(self.input_columns):
            raise DimensionMismatch("input name count differs from input rows")
        for std, names in (
            (self.input_standardizer, self.input_names),
            (self.observable_standardizer, self.observable_names),
        ):
            if std is not None and std.channels != names:
                raise DimensionMismatch(f"standardizer channels {std.channels} differ from {names}")

    @classmethod
    def from_arrays(
        cls,
        y_cur: np.ndarray,
        y_next: np.ndarray,
        u_cur: np.ndarray,
        observable_names: Sequence[str],
        input_names: Sequence[str],
        sample_rate_hz: float,
    ) -> "SnapshotSet":
        """One segment of pairs given as columns: y_next[:, t] follows
        y_cur[:, t] under u_cur[:, t]."""
        q, n = y_cur.shape
        if y_next.shape != (q, n):
            raise DimensionMismatch("y_next shape differs from y_cur")
        if u_cur.shape[1] != n:
            raise DimensionMismatch("u_cur column count differs from y_cur")
        return cls(
            segments=((np.vstack([y_cur, u_cur]).T, y_next.T),),
            observable_columns=tuple(range(q)),
            input_columns=tuple(range(q, q + u_cur.shape[0])),
            observable_names=tuple(observable_names),
            input_names=tuple(input_names),
            sample_rate_hz=sample_rate_hz,
        )

    @property
    def pair_count(self) -> int:
        return sum(current.shape[0] for current, _ in self.segments)

    def _chunks(self):
        """Standardized ``[y u]`` rows and their ``y_next`` rows, per chunk.

        Each chunk is one row-major gather of at most ``_CHUNK_ROWS`` pairs of
        one segment, standardized in place with the exact ``(x - mean) /
        scale``; a side without a standardizer gets the identity map, which
        leaves every value unchanged.
        """
        state = list(self.observable_columns)
        columns = state + list(self.input_columns)
        q = len(state)
        obs_std, in_std = self.observable_standardizer, self.input_standardizer
        standardize = obs_std is not None or in_std is not None
        if standardize:
            obs_std = obs_std or StandardizationParams.identity(self.observable_names)
            in_std = in_std or StandardizationParams.identity(self.input_names)
            shift = np.concatenate([obs_std.mean, in_std.mean])
            scale = np.concatenate([obs_std.scale, in_std.scale])
        for current, following in self.segments:
            for start in range(0, current.shape[0], _CHUNK_ROWS):
                now = current[start : start + _CHUNK_ROWS].take(columns, axis=1)
                then = following[start : start + _CHUNK_ROWS].take(state, axis=1)
                if standardize:
                    now -= shift
                    now /= scale
                    then -= shift[:q]
                    then /= scale[:q]
                yield now, then

    def _stacked(self) -> np.ndarray:
        """[y_cur; u_cur; y_next], (2q + p) x n, as ``fit`` sees it."""
        k = len(self.observable_columns) + len(self.input_columns)
        out = np.empty((k + len(self.observable_columns), self.pair_count))
        at = 0
        for now, then in self._chunks():
            out[:k, at : at + len(now)] = now.T
            out[k:, at : at + len(now)] = then.T
            at += len(now)
        return out

    # On-demand standardized copies of the pairs, for tests and oracles.
    @property
    def y_cur(self) -> np.ndarray:
        return self._stacked()[: len(self.observable_columns)]

    @property
    def u_cur(self) -> np.ndarray:
        q = len(self.observable_columns)
        return self._stacked()[q : q + len(self.input_columns)]

    @property
    def y_next(self) -> np.ndarray:
        return self._stacked()[len(self.observable_columns) + len(self.input_columns) :]


def build_snapshots(
    datasets: Sequence[TimeSeriesDataset],
    inputs: Sequence[str],
    observables: Sequence[str],
    input_standardizer: StandardizationParams | None = None,
    observable_standardizer: StandardizationParams | None = None,
) -> SnapshotSet:
    """Point at the snapshot pairs of one or more experiments, copying nothing.

    Each experiment with m rows contributes m - 1 pairs; experiments must
    agree on channel schema and sample rate. The optional standardizers,
    aligned with ``inputs`` and ``observables``, are applied by ``fit``.
    """
    if not datasets:
        raise TooShort("<none>", 0)
    ref = datasets[0]
    for ds in datasets[1:]:
        if ds.channel_names != ref.channel_names:
            raise SchemaMismatch(
                f"{ds.experiment_id!r} channels differ from {ref.experiment_id!r}"
            )
        if ds.sample_rate_hz != ref.sample_rate_hz:
            raise SchemaMismatch(
                f"{ds.experiment_id!r} sample rate differs from {ref.experiment_id!r}"
            )
    for ds in datasets:
        if ds.row_count < 2:
            raise TooShort(ds.experiment_id, ds.row_count)
    return SnapshotSet(
        segments=tuple((ds.data[:-1], ds.data[1:]) for ds in datasets),
        observable_columns=tuple(ref.index_of(name) for name in observables),
        input_columns=tuple(ref.index_of(name) for name in inputs),
        observable_names=tuple(observables),
        input_names=tuple(inputs),
        sample_rate_hz=ref.sample_rate_hz,
        input_standardizer=input_standardizer,
        observable_standardizer=observable_standardizer,
    )


@dataclass(frozen=True)
class StateSpaceModel:
    A: np.ndarray
    B: np.ndarray
    observable_names: tuple[str, ...]
    input_names: tuple[str, ...]
    sample_rate_hz: float
    svd_rank_used: int
    input_standardizer: StandardizationParams | None = None
    observable_standardizer: StandardizationParams | None = None

    def __post_init__(self):
        q = len(self.observable_names)
        p = len(self.input_names)
        if self.A.shape != (q, q):
            raise DimensionMismatch(f"A must be {q}x{q}, got {self.A.shape}")
        if self.B.shape != (q, p):
            raise DimensionMismatch(f"B must be {q}x{p}, got {self.B.shape}")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]


def fit(snapshots: SnapshotSet, rank: int | None = None) -> StateSpaceModel:
    """Solve y_next = [A B] [y_cur; u_cur] in the least-squares sense.

    Parameters
    ----------
    snapshots : SnapshotSet
        Where the pairs live; needs at least q + p pairs to determine the
        operator. Its standardizers are applied to the pairs and attached to
        the model.
    rank : int, optional
        Cap on the SVD truncation rank, at least 1. Default keeps every
        singular value above the numerical-rank cutoff (machine epsilon times
        the larger dimension of the stacked matrix, relative to the largest
        value).

    Notes
    -----
    With M = [y_cur; u_cur; y_next]^T = Q R, taken block by block as a
    sequential tall-skinny QR (Demmel et al. 2012), the leading (q+p) columns
    give Omega^T = [y_cur; u_cur]^T = Q1 R11 and the rest y_next^T = Q1 R12 +
    Q2 R22. So Omega has the singular values of R11 = U S V^T, and the
    minimum-norm solution y_next pinv(Omega) is [A B] = R12^T U S^-1 V^T,
    split column-wise into the state and input blocks. Rank deficiency of
    Omega is survivable (truncation handles it) but suspicious, so it warns
    rather than raises.

    The rows of M are read straight from each experiment's data: gathered
    and standardized a chunk of up to ``_CHUNK_ROWS`` pairs at a time, then
    cut into blocks of ``_QR_BLOCK_ROWS`` pairs counted over all
    experiments, so a block may span an experiment boundary. No snapshot
    matrix is ever stacked.
    """
    if rank is not None and rank < 1:
        raise ConfigError(f"svd rank cap must be at least 1, got {rank}")
    q = len(snapshots.observable_names)
    k = q + len(snapshots.input_names)
    n = snapshots.pair_count
    if n < k:
        raise InsufficientPairs(n, k)

    # Blocks of M are built transposed in `work` behind the carried R factor,
    # so LAPACK receives column-major input.
    work = np.empty((k + q, k + q + min(n, _QR_BLOCK_ROWS)))
    top = filled = done = 0
    for now, then in snapshots._chunks():
        pos = 0
        while pos < len(now):
            take = min(_QR_BLOCK_ROWS - filled, len(now) - pos)
            at = top + filled
            work[:k, at : at + take] = now[pos : pos + take].T
            work[k:, at : at + take] = then[pos : pos + take].T
            pos, filled, done = pos + take, filled + take, done + take
            if filled == _QR_BLOCK_ROWS or done == n:
                r_factor = np.linalg.qr(work[:, : top + filled].T, mode="r")
                top, filled = r_factor.shape[0], 0
                work[:, :top] = r_factor.T
    # NaN and inf anywhere in the pairs reach R through the reflections.
    if not np.isfinite(r_factor).all():
        raise NonFiniteSnapshots(n)

    u, s, vt = np.linalg.svd(r_factor[:k, :k])
    if s[0] == 0.0:
        numerical_rank = 0
    else:
        numerical_rank = int(np.count_nonzero(s > _EPS * max(k, n) * s[0]))
    r = numerical_rank if rank is None else min(int(rank), numerical_rank)
    if r < 1:
        raise InsufficientPairs(n, k)
    if numerical_rank < k:
        warnings.warn(
            f"snapshot matrix rank {numerical_rank} < {k}; "
            "solution is minimum-norm on a deficient span",
            RankDeficiencyWarning,
            stacklevel=2,
        )

    # R12^T U_r, scaled by 1/s_r, then mapped back through the state and
    # input columns of V_r^T.
    proj = (r_factor[:k, k:].T @ u[:, :r]) / s[:r]
    a = proj @ vt[:r, :q]
    b = proj @ vt[:r, q:]
    return StateSpaceModel(
        A=a,
        B=b,
        observable_names=snapshots.observable_names,
        input_names=snapshots.input_names,
        sample_rate_hz=snapshots.sample_rate_hz,
        svd_rank_used=r,
        input_standardizer=snapshots.input_standardizer,
        observable_standardizer=snapshots.observable_standardizer,
    )


def rollout(model: StateSpaceModel, y0: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Self-fed prediction: feed each prediction back as the next state.

    Parameters
    ----------
    y0 : array, shape (q,)
        State at time 0, in the model's (standardized) coordinates.
    inputs : array, shape (p, T)
        Input columns u[0] ... u[T-1].

    Returns
    -------
    array, shape (q, T)
        Predictions for times 1 ... T; column t-1 is the estimate of y[t].
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    q, p = model.state_dim, model.input_dim
    if y0.shape != (q,):
        raise DimensionMismatch(f"y0 must have length {q}, got {y0.shape}")
    if inputs.shape[0] != p:
        raise DimensionMismatch(f"inputs must have {p} rows, got {inputs.shape[0]}")
    return linear_recurrence(model.A, (model.B @ inputs).T, y0).T


def linear_recurrence(a: np.ndarray, drive: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Run y[t] = A y[t-1] + drive[t-1] for t = 1 ... T; return rows y[1..T].

    Chunked form of the parallel linear-recurrence scan (Blelloch 1990;
    Martin & Cundy 2018). With chunks of length L and s the state entering a
    chunk, step j of that chunk is

        y[j] = A^(j+1) s + sum_{i<=j} A^(j-i) d[i].

    The sum is one matmul of every chunk's drive against the block
    lower-triangular Toeplitz matrix of A^0 ... A^(L-1). The chunk-entry
    states follow s[c+1] = A^L s[c] + e[c], with e[c] the last row of chunk
    c's sum: a recurrence of its own, T/L steps long, which this function
    solves by calling itself, down to a single chunk. The A^(j+1) s term is
    one more matmul. Agrees with the per-step loop to rounding.

    Parameters
    ----------
    a : array, shape (q, q)
    drive : array, shape (T, q), or (S, T, q) for S sequences at once
        Row t is the input contribution entering step t + 1.
    y0 : array, shape (q,), or (S, q) with a batch of drives
    """
    drive = np.asarray(drive, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if drive.ndim == 2:
        return linear_recurrence(a, drive[None], y0[None])[0]
    batch, steps, q = drive.shape
    # Short chunks keep the Toeplitz matmul at L q^2 flops per step; the cap
    # on L*q bounds the Toeplitz matrix for wide states.
    L = max(1, min(_SCAN_CHUNK, 256 // max(q, 1), steps))

    powers = np.empty((L + 1, q, q))
    powers[0] = np.eye(q)
    powers[1] = a
    have = 1
    while have < L:  # A^(have+j) = A^j A^have, doubling the known powers
        k = min(have, L - have)
        powers[have + 1 : have + k + 1] = powers[1 : k + 1] @ powers[have]
        have += k
    # An operator outside the unit circle may overflow its high powers
    # before the trajectory itself does; shorten the chunks to the last
    # finite power. The carry runs on A^L, so its powers are checked again
    # one level down.
    bad = ~np.isfinite(powers).all(axis=(1, 2))
    if bad.any():
        L = max(1, int(np.argmax(bad)) - 1)
        powers = powers[: L + 1]
    if L == 1:  # the per-step loop
        out = np.empty_like(drive)
        state, a_t = y0, powers[1].T
        for t in range(steps):
            state = state @ a_t + drive[:, t]
            out[:, t] = state
        return out

    chunks = -(-steps // L)
    if chunks * L == steps:
        d = drive
    else:
        d = np.zeros((batch, chunks * L, q))
        d[:, :steps] = drive
    # Row-vector form: block (i, j) of the Toeplitz matrix is (A^(j-i))^T.
    lag = np.arange(L)[None, :] - np.arange(L)[:, None]
    toeplitz = powers[np.maximum(lag, 0)].transpose(0, 1, 3, 2) * (lag >= 0)[:, :, None, None]
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(L * q, L * q)
    y = d.reshape(batch, chunks, L * q) @ toeplitz
    del d  # a padded copy is not read again; free it before the carry allocates

    starts = np.empty((batch, chunks, q))
    starts[:, 0] = y0
    if chunks > 1:
        starts[:, 1:] = linear_recurrence(powers[L], y[:, :-1, -q:], y0)
    y += starts @ powers[1:].transpose(2, 0, 1).reshape(q, L * q)
    return y.reshape(batch, chunks * L, q)[:, :steps]


def _encode_matrix(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype="<f8")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "encoding": "base64/float64-le/row-major",
        "data": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def _decode_matrix(d: dict, path: str) -> np.ndarray:
    try:
        raw = base64.b64decode(d["data"].encode("ascii"), validate=True)
        rows, cols = int(d["rows"]), int(d["cols"])
    except (KeyError, ValueError, AttributeError) as exc:
        raise CorruptFile(path, f"bad matrix block: {exc}") from None
    if len(raw) != rows * cols * 8:
        raise CorruptFile(path, "matrix byte length disagrees with shape")
    return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()


def save_model(
    model: StateSpaceModel, path: str | Path, cfg=None, experiments: Sequence[str] | None = None
) -> None:
    """Write ``model``; with a run configuration ``cfg`` it carries that run's
    provenance, and with ``experiments`` the sorted ids it was fitted on."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "sample_rate_hz": model.sample_rate_hz,
        "svd_rank_used": model.svd_rank_used,
        "observables": model.observable_names,
        "inputs": model.input_names,
        "A": _encode_matrix(model.A),
        "B": _encode_matrix(model.B),
        "input_standardizer": model.input_standardizer,
        "observable_standardizer": model.observable_standardizer,
    }
    if experiments is not None:
        payload["experiments"] = sorted(experiments)
    write_json(path, payload, cfg)


def load_model(
    path: str | Path, cfg=None, experiments: Sequence[str] | None = None
) -> StateSpaceModel:
    """The model at ``path``; with ``cfg``, only one saved under that run's
    provenance, and with ``experiments``, only one fitted on exactly those."""
    path = str(path)
    payload = read_json_object(path)
    if payload.get("format") != MODEL_FORMAT:
        raise CorruptFile(path, "not a model file")
    if payload.get("version") != MODEL_VERSION:
        raise VersionMismatch(payload.get("version"), MODEL_VERSION)
    if cfg is not None:  # after the version, so a version-1 file reads as one
        check_provenance(payload, path, cfg)
    try:
        in_std = payload["input_standardizer"]
        obs_std = payload["observable_standardizer"]
        model = StateSpaceModel(
            A=_decode_matrix(payload["A"], path),
            B=_decode_matrix(payload["B"], path),
            observable_names=tuple(payload["observables"]),
            input_names=tuple(payload["inputs"]),
            sample_rate_hz=float(payload["sample_rate_hz"]),
            svd_rank_used=int(payload["svd_rank_used"]),
            input_standardizer=StandardizationParams(**in_std) if in_std else None,
            observable_standardizer=StandardizationParams(**obs_std) if obs_std else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(path, f"missing or malformed field: {exc}") from None
    if experiments is not None:
        check_experiments(payload, path, experiments)
    return model
