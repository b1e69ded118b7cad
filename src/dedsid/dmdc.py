"""Linear state-space surrogate fitting from snapshot pairs.

The model is y[t+1] = A y[t] + B u[t] with observables treated directly as
state (identity output map, no feedthrough): with gappy sensing there is no
separate latent state worth estimating. ``build_snapshots`` reads each
experiment's rows once into a small R factor (a blocked tall-skinny QR) and
the moments its standardizers need; ``fit`` stacks the factors of any subset
of experiments, takes one more QR and one SVD of its leading (q+p)x(q+p)
block. No reduced-order projection is applied unless a rank cap is
requested, because the feature count is tiny next to the sample count and
full rank keeps the operator interpretable per channel.
"""

from __future__ import annotations

import base64
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import check_provenance, read_json_object, write_json
from .dataset import (
    StandardizationParams,
    TimeSeriesDataset,
    pool_moments,
    standardizer_from_moments,
)
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
# Pairs per QR step of an experiment's pass: the block plus the carried R
# factor stays in cache, and the per-call overhead is paid once per
# thousands of pairs.
_QR_BLOCK_ROWS = 2048
# Rows whose mean sets an experiment's shift: enough to find the level of a
# channel, few enough that their copy stays small next to the record.
_SHIFT_ROWS = 16 * _QR_BLOCK_ROWS
# Steps per chunk of linear_recurrence: 8 ran fastest of 4-32 on 1e6 steps
# and on batches of 8 x 70-3,500 steps (q = 3, one BLAS thread).
_SCAN_CHUNK = 8


@dataclass(frozen=True)
class SnapshotSet:
    """The snapshot pairs of each experiment, summarized by one pass over its rows.

    With x_t = [y_t u_t] (observables, then inputs) and a shift c per
    experiment, ``factors[e]`` is the upper-triangular R factor of the m - 1
    rows [1, x_t - c, y_{t+1} - c_y] of experiment e's pairs (c_y is the
    observable part of c; a short experiment's R ends in zero rows). The
    intercept column makes R carry the column sums too, so R^T R gives the
    mean and the sum of squared deviations (M2) of x over the pairs;
    ``means`` and ``m2`` add the last row, so they cover [y u] over all m
    rows, as the pooled standardizers need. The shift is the first row plus
    the mean difference from it of the first ``_SHIFT_ROWS`` rows: it keeps
    the digits a large raw offset would cost, and it is exact for a channel
    that is constant in the experiment. Pairs never straddle experiments,
    and ``fit`` reads only these summaries, never the rows.
    """

    experiment_ids: tuple[str, ...]
    factors: np.ndarray  # (E, w, w) with w = 1 + (q + p) + q
    shifts: np.ndarray  # (E, q + p)
    pair_counts: np.ndarray  # (E,)
    means: np.ndarray  # (E, q + p)
    m2: np.ndarray  # (E, q + p)
    observable_names: tuple[str, ...]
    input_names: tuple[str, ...]
    sample_rate_hz: float

    @property
    def pair_count(self) -> int:
        return int(self.pair_counts.sum())

    def subset(self, ids: Sequence[str]) -> "SnapshotSet":
        """The summaries of the experiments ``ids``, in that order."""
        pick = [self.experiment_ids.index(i) for i in ids]
        return replace(
            self,
            experiment_ids=tuple(ids),
            factors=self.factors[pick],
            shifts=self.shifts[pick],
            pair_counts=self.pair_counts[pick],
            means=self.means[pick],
            m2=self.m2[pick],
        )


def _summarize(
    current: np.ndarray, following: np.ndarray, columns: Sequence[int], q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One experiment's R factor, shift, and mean and M2 of [y u].

    ``current`` and ``following`` are equally long row arrays in one column
    layout: ``columns`` pick x = [y u] from ``current``, their first q pick
    y from ``following``, and the last row of ``following`` completes the
    moments. Each block of ``_QR_BLOCK_ROWS`` pairs is shifted and written
    straight from the rows into the work array, then reduced into the
    carried R factor (a sequential tall-skinny QR, Demmel et al. 2012); only
    the first ``_SHIFT_ROWS`` rows are copied, once, for the shift.
    """
    n, k = len(current), len(columns)
    # A NaN or inf in the rows turns the summaries into NaN, which fit names.
    with np.errstate(invalid="ignore"):
        first = current[:_SHIFT_ROWS].take(columns, axis=1)
        x0 = first[0].copy()
        first -= x0
        shift = x0 + first.mean(axis=0)
        del first
        # Blocks are built transposed in `work` behind the carried R factor, so
        # LAPACK receives column-major input.
        work = np.empty((1 + k + q, 1 + k + q + min(n, _QR_BLOCK_ROWS)))
        top = 0
        for pos in range(0, n, _QR_BLOCK_ROWS):
            take = min(_QR_BLOCK_ROWS, n - pos)
            block = work[:, : top + take]
            block[0, top:] = 1.0
            now, then = current[pos : pos + take].T, following[pos : pos + take].T
            np.subtract(now[columns], shift[:, None], out=block[1 : 1 + k, top:])
            np.subtract(then[columns[:q]], shift[:q, None], out=block[1 + k :, top:])
            r_factor = np.linalg.qr(block.T, mode="r")
            top = len(r_factor)
            work[:, :top] = r_factor.T
        factor = np.zeros((1 + k + q, 1 + k + q))
        factor[:top] = r_factor
        # R^T R = Z^T Z: row 0 over R[0, 0] = +-sqrt(n) gives the column means
        # of x - c, and the rows below give the sums of squared deviations.
        mean = shift + factor[0, 1 : 1 + k] / factor[0, 0]
        m2 = np.einsum("ij,ij->j", factor[1:, 1 : 1 + k], factor[1:, 1 : 1 + k])
        # The last row, in one Welford step.
        last = following[-1].take(columns)
        delta = last - mean
        mean = mean + delta / (n + 1)
        m2 = m2 + delta * (last - mean)
    return factor, shift, mean, m2


def build_snapshots(
    datasets: Sequence[TimeSeriesDataset],
    inputs: Sequence[str],
    observables: Sequence[str],
) -> SnapshotSet:
    """Summarize the snapshot pairs of one or more experiments, one pass each.

    Each experiment with m rows contributes m - 1 pairs; experiments must
    agree on channel schema and sample rate. No experiment's rows are
    copied whole.
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
    columns = [ref.index_of(name) for name in (*observables, *inputs)]
    parts = [_summarize(ds.data[:-1], ds.data[1:], columns, len(observables)) for ds in datasets]
    factors, shifts, means, m2 = (np.stack(part) for part in zip(*parts))
    return SnapshotSet(
        experiment_ids=tuple(ds.experiment_id for ds in datasets),
        factors=factors,
        shifts=shifts,
        pair_counts=np.array([ds.row_count - 1 for ds in datasets]),
        means=means,
        m2=m2,
        observable_names=tuple(observables),
        input_names=tuple(inputs),
        sample_rate_hz=ref.sample_rate_hz,
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
    # s[0] / s[r - 1] of the fitted snapshot matrix over the rank used; a
    # model read from a file does not carry it.
    condition_number: float | None = None

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


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of ``a``; above 1, a rollout diverges."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=float)))))


def fit(
    snapshots: SnapshotSet,
    rank: int | None = None,
    standardize_inputs: bool = False,
    standardize_observables: bool = False,
) -> StateSpaceModel:
    """Solve y_next = [A B] [y_cur; u_cur] in the least-squares sense.

    Parameters
    ----------
    snapshots : SnapshotSet
        The experiments to fit on; needs at least q + p pairs in all.
    rank : int, optional
        Cap on the SVD truncation rank, at least 1. Default keeps every
        singular value above the numerical-rank cutoff (machine epsilon times
        the larger dimension of the stacked matrix, relative to the largest
        value).
    standardize_inputs, standardize_observables : bool
        Fit that side on (x - mean) / scale, with the population mean and
        standard deviation of each channel over every row of the
        experiments (Chan, Golub & LeVeque 1979 merge the experiments'
        moments); a channel constant over them gets unit scale and a
        ``DegenerateChannelWarning``. The standardizers ride on the model.

    Notes
    -----
    Per experiment, Z = [1, x - c, y_next - c_y] = Q R (see ``SnapshotSet``).
    Standardizing is an affine map of Z's columns, Z M with M upper
    triangular, so the standardized pairs are Q (R M); dropping the
    intercept column leaves Q (R M)[:, 1:]. The experiments' (R M)[:, 1:]
    stacked and reduced by one QR therefore give the R factor of the pooled
    M = [y_cur; u_cur; y_next]^T. Its leading (q+p) columns give Omega^T =
    [y_cur; u_cur]^T = Q1 R11 and the rest y_next^T = Q1 R12 + Q2 R22. So
    Omega has the singular values of R11 = U S V^T, and the minimum-norm
    solution y_next pinv(Omega) is [A B] = R12^T U S^-1 V^T, split
    column-wise into the state and input blocks. Rank deficiency of Omega is
    survivable (truncation handles it) but suspicious, so it warns rather
    than raises.
    """
    if rank is not None and rank < 1:
        raise ConfigError(f"svd rank cap must be at least 1, got {rank}")
    q = len(snapshots.observable_names)
    k = q + len(snapshots.input_names)
    n = snapshots.pair_count
    if n < k:
        raise InsufficientPairs(n, k)
    # NaN and inf in a selected channel, the last row included, reach R
    # through the reflections or the moments through their sums.
    if not all(np.isfinite(a).all() for a in (snapshots.factors, snapshots.means, snapshots.m2)):
        raise NonFiniteSnapshots(n)

    mean, scale = np.zeros(k), np.ones(k)
    in_std = obs_std = None
    if standardize_inputs or standardize_observables:
        rows, pooled_mean, pooled_m2 = pool_moments(
            snapshots.pair_counts + 1, snapshots.means, snapshots.m2
        )
        if standardize_inputs:
            in_std = standardizer_from_moments(
                snapshots.input_names, rows, pooled_mean[q:], pooled_m2[q:]
            )
            mean[q:], scale[q:] = in_std.mean, in_std.scale
        if standardize_observables:
            obs_std = standardizer_from_moments(
                snapshots.observable_names, rows, pooled_mean[:q], pooled_m2[:q]
            )
            mean[:q], scale[:q] = obs_std.mean, obs_std.scale
    # Columns after the intercept: x, then y_next under y's map.
    mean, scale = np.concatenate([mean, mean[:q]]), np.concatenate([scale, scale[:q]])
    shifts = np.concatenate([snapshots.shifts, snapshots.shifts[:, :q]], axis=1)
    stacked = snapshots.factors[:, :, 1:] / scale
    stacked[:, 0] += snapshots.factors[:, 0, :1] * ((shifts - mean) / scale)
    r_factor = np.linalg.qr(stacked.reshape(-1, k + q), mode="r")

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
        input_standardizer=in_std,
        observable_standardizer=obs_std,
        condition_number=float(s[0] / s[r - 1]),
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


def save_model(model: StateSpaceModel, path: str | Path, provenance: dict | None = None) -> None:
    """Write ``model``, with the ``provenance`` record of its run if given."""
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
    write_json(path, payload, provenance)


def load_model(path: str | Path, provenance: dict | None = None) -> StateSpaceModel:
    """The model at ``path``; with a ``provenance`` record, only one saved
    under it."""
    path = str(path)
    payload = read_json_object(path)
    if payload.get("format") != MODEL_FORMAT:
        raise CorruptFile(path, "not a model file")
    if payload.get("version") != MODEL_VERSION:
        raise VersionMismatch(payload.get("version"), MODEL_VERSION)
    if provenance is not None:  # after the version, so a version-1 file reads as one
        check_provenance(payload, path, provenance)
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
    return model
