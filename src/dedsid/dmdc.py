"""Linear state-space surrogate fitting from snapshot pairs.

The model is y[t+1] = A y[t] + B u[t] with observables treated directly as
state (identity output map, no feedthrough): with gappy sensing there is no
separate latent state worth estimating. ``build_snapshots`` reads each
experiment's rows once into a small R factor (a blocked tall-skinny QR,
each block factored in place by LAPACK's ``dgeqrf``, which
``np.linalg.qr`` would call on a copy of it) and the moments its
standardizers need; ``fit`` stacks the factors of any subset
of experiments, takes one more QR and one SVD of its leading (q+p)x(q+p)
block. No reduced-order projection is applied unless a rank cap is
requested, because the feature count is tiny next to the sample count and
full rank keeps the operator interpretable per channel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.linalg import lapack_lite

from .artifacts import check_provenance, from_plain, read_json_object, write_json
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
    SchemaMismatch,
    TooShort,
    VersionMismatch,
)

MODEL_FORMAT = "dedsid.model"
MODEL_VERSION = 4

_EPS = float(np.finfo(float).eps)
# Pairs per QR step of an experiment's pass: the block plus the carried R
# factor stays in cache, and the per-call overhead is paid once per
# thousands of pairs. Over 1e6 pairs (q = 3, p = 21, one BLAS thread, median
# of 5) blocks of 512, 1,024 and 2,048 pairs took 0.28, 0.24 and 0.25 s, and
# blocks of 4,096 and 8,192 pairs 0.30 and 0.31 s.
_QR_BLOCK_ROWS = 2048
# Rows whose mean sets an experiment's shift: enough to find the level of a
# channel, few enough that their copy stays small next to the record.
_SHIFT_ROWS = 16 * _QR_BLOCK_ROWS
# Steps per chunk of linear_recurrence: with the drive read in place, 8, 12
# and 16 tie as the fastest of 4-32 on 1e6 steps (15-16 ms) and on batches
# of 8 x 70-3,500 steps (0.33-0.34 ms); 4, 6 and 32 run 7-48% slower (q = 3,
# one BLAS thread, median of 9 and 31 warm calls).
_SCAN_CHUNK = 8
# Chunk rows, over the whole batch, per block of linear_recurrence's
# matmuls: blocks of 512-16,384 chunks tie on 1e6 steps. A block of 4,096
# chunks of 8 steps, q = 3, is 768 KB of drive, and numpy reads a block it
# writes over from a copy of it. Cutting a product's rows into blocks leaves
# each row's bits as they are on OpenBLAS 0.3.31 (Haswell kernels), but for
# a block of one row, which goes to gemv, and for states of 32 or more
# observables, whose rows round by the product's row count.
_SCAN_BLOCK = 4096


@dataclass(frozen=True)
class SnapshotSet:
    """The snapshot pairs of each experiment, summarized by one pass over its rows.

    With x_t = [y_t u_t] (observables, then inputs) and a shift c per
    experiment, ``factors[e]`` is the upper-triangular R factor of the m - 1
    rows [1, x_t - c, y_{t+1} - c_y] of experiment e's pairs (c_y is the
    observable part of c; a short experiment's R ends in zero rows), and
    ``last_rows[e]`` is its row m - 1 of [y u]. The intercept column makes
    R^T R carry the pairs' sums too, so with the last row they give the
    moments of [y u] over all m rows. The shift is the first row plus the
    mean difference from it of the first ``_SHIFT_ROWS`` rows: it keeps the
    digits a large raw offset would cost, and it is exact for a channel
    constant in the experiment, whose M2 is then exactly 0. Pairs never
    straddle experiments; ``fit`` and the VIF screen read only these.
    """

    experiment_ids: tuple[str, ...]
    factors: np.ndarray  # (E, w, w) with w = 1 + (q + p) + q; fewer columns once narrowed
    shifts: np.ndarray  # (E, q + p)
    pair_counts: np.ndarray  # (E,)
    last_rows: np.ndarray  # (E, q + p)
    observable_names: tuple[str, ...]
    input_names: tuple[str, ...]
    sample_rate_hz: float

    @property
    def pair_count(self) -> int:
        return int(self.pair_counts.sum())

    def pooled_moments(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Row count, mean and M2 of [y u] over every row of every experiment:
        R gives each experiment's over its pairs (row 0 over R[0, 0] = +-sqrt(n)
        the means of x - c, the rows below the M2), and its last row joins in
        one Welford step."""
        x = self.factors[:, :, 1 : 1 + self.shifts.shape[1]]
        mean = self.shifts + x[:, 0] / self.factors[:, :1, 0]
        m2 = np.einsum("eij,eij->ej", x[:, 1:], x[:, 1:])
        rows = self.pair_counts + 1
        delta = self.last_rows - mean
        mean += delta / rows[:, None]
        m2 += delta * (self.last_rows - mean)
        return pool_moments(rows, mean, m2)

    def require_finite(self) -> None:
        """``NonFiniteSnapshots`` if a NaN or infinity reached R or the last rows."""
        if not (np.isfinite(self.factors).all() and np.isfinite(self.last_rows).all()):
            raise NonFiniteSnapshots(self.pair_count)

    def subset(self, ids: Sequence[str]) -> "SnapshotSet":
        """The summaries of the experiments ``ids``, in that order."""
        pick = [self.experiment_ids.index(i) for i in ids]
        return replace(
            self,
            experiment_ids=tuple(ids),
            factors=self.factors[pick],
            shifts=self.shifts[pick],
            pair_counts=self.pair_counts[pick],
            last_rows=self.last_rows[pick],
        )

    def select_inputs(self, names: Sequence[str]) -> "SnapshotSet":
        """The observables and the inputs ``names``: R's columns, sliced."""
        q, p = len(self.observable_names), len(self.input_names)
        keep = [*range(q), *(q + self.input_names.index(name) for name in names)]
        columns = [0, *(1 + j for j in keep), *range(1 + q + p, 1 + q + p + q)]
        return replace(
            self,
            factors=self.factors[:, :, columns],
            shifts=self.shifts[:, keep],
            last_rows=self.last_rows[:, keep],
            input_names=tuple(names),
        )


def standardized_stack(
    factors: np.ndarray, shifts: np.ndarray, mean: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """R factors of rows [1, z - c], c each experiment's row of ``shifts``,
    mapped to factors of rows [1, (z - mean) / scale] and stacked. The map
    is affine (see ``fit``); only row 0 of R has an intercept entry."""
    stacked = factors / np.append(1.0, scale)
    stacked[:, 0, 1:] += factors[:, 0, :1] * ((shifts - mean) / scale)
    return stacked.reshape(-1, factors.shape[2])


def _runs(columns: Sequence[int]) -> list[list[int]]:
    """``[j, c, size]`` for each run of consecutive ``columns``: entries j to
    j + size - 1 of ``columns`` are c to c + size - 1."""
    runs: list[list[int]] = []
    for j, c in enumerate(columns):
        if runs and runs[-1][1] + runs[-1][2] == c:
            runs[-1][2] += 1
        else:
            runs.append([j, c, 1])
    return runs


def _summarize(
    current: np.ndarray, following: np.ndarray, columns: Sequence[int], q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One experiment's R factor, shift, and last row of [y u].

    ``current`` and ``following`` are equally long row arrays in one column
    layout: ``columns`` pick x = [y u] from ``current``, their first q pick
    y from ``following``, whose last row is the experiment's last. Each
    block of ``_QR_BLOCK_ROWS`` pairs is shifted and written straight from
    the rows into the work array, one ``np.subtract`` per run of consecutive
    columns, then reduced into the carried R factor (a sequential
    tall-skinny QR, Demmel et al. 2012); only the first ``_SHIFT_ROWS`` rows
    are copied, once, for the shift.
    """
    n, k = len(current), len(columns)
    # A NaN or inf in the rows turns R into NaN, which require_finite names.
    with np.errstate(invalid="ignore"):
        first = current[:_SHIFT_ROWS].take(columns, axis=1)
        x0 = first[0].copy()
        first -= x0
        shift = x0 + first.mean(axis=0)
        del first
        # Blocks are built transposed in `work` behind the carried R factor:
        # its C order is the column-major (rows x w) layout LAPACK reads, so
        # dgeqrf factors it in place, as np.linalg.qr would a copy. Its
        # optimal workspace is 32 w, so 64 w lets it block the same way.
        w = 1 + k + q
        work = np.empty((w, w + min(n, _QR_BLOCK_ROWS)))
        tau, scratch = np.empty(w), np.empty(64 * w)
        reflectors = np.triu_indices(w, 1)
        x_runs, y_runs = _runs(columns), _runs(columns[:q])
        top = 0
        for pos in range(0, n, _QR_BLOCK_ROWS):
            take = min(_QR_BLOCK_ROWS, n - pos)
            block = work[:, top : top + take]
            block[0] = 1.0
            now, then = current[pos : pos + take].T, following[pos : pos + take].T
            for rows, row0, runs in ((now, 1, x_runs), (then, 1 + k, y_runs)):
                for j, c, size in runs:
                    out = block[row0 + j : row0 + j + size]
                    np.subtract(rows[c : c + size], shift[j : j + size, None], out=out)
            info = lapack_lite.dgeqrf(
                top + take, w, work, work.shape[1], tau, scratch, len(scratch), 0
            )["info"]
            if info != 0:
                raise RuntimeError(f"dgeqrf failed with info {info}")
            top = min(top + take, w)
            # R is the upper triangle of the first `top` rows; dgeqrf stored
            # its reflectors below it, which the next block must see as 0.
            work[reflectors] = 0.0
    factor = np.zeros((w, w))
    factor[:top] = work[:, :top].T
    return factor, shift, following[-1].take(columns)


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
    factors, shifts, last_rows = (np.stack(part) for part in zip(*parts))
    return SnapshotSet(
        experiment_ids=tuple(ds.experiment_id for ds in datasets),
        factors=factors,
        shifts=shifts,
        pair_counts=np.array([ds.row_count - 1 for ds in datasets]),
        last_rows=last_rows,
        observable_names=tuple(observables),
        input_names=tuple(inputs),
        sample_rate_hz=ref.sample_rate_hz,
    )


@dataclass(frozen=True)
class StateSpaceModel:
    """y[t+1] = A y[t] + B u[t] over the named channels, each side with the
    standardizer of its channels or None; the fields are ``model.json``'s."""

    A: np.ndarray
    B: np.ndarray
    observable_names: tuple[str, ...]
    input_names: tuple[str, ...]
    sample_rate_hz: float
    svd_rank_used: int
    input_standardizer: StandardizationParams | None = None
    observable_standardizer: StandardizationParams | None = None
    # s[0] / s[r - 1] of the fitted snapshot matrix over the rank used, and
    # its numerical rank, uncapped: below q + p, the matrix was deficient.
    condition_number: float | None = None
    numerical_rank: int | None = None

    def __post_init__(self):
        q = len(self.observable_names)
        p = len(self.input_names)
        if self.A.shape != (q, q):
            raise DimensionMismatch(f"A must be {q}x{q}, got {self.A.shape}")
        if self.B.shape != (q, p):
            raise DimensionMismatch(f"B must be {q}x{p}, got {self.B.shape}")
        for std, names in (
            (self.input_standardizer, self.input_names),
            (self.observable_standardizer, self.observable_names),
        ):
            if std is not None and std.channels != tuple(names):
                raise DimensionMismatch(
                    f"standardizer of channels {list(std.channels)} for {list(names)}"
                )

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
        moments); a channel constant over them gets unit scale, and its
        zero column lowers ``svd_rank_used``. The standardizers ride on the
        model.

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
    survivable (truncation handles it); the model records it as a
    ``numerical_rank`` below q + p, whatever the cap.
    """
    if rank is not None and rank < 1:
        raise ConfigError(f"svd rank cap must be at least 1, got {rank}")
    q = len(snapshots.observable_names)
    k = q + len(snapshots.input_names)
    n = snapshots.pair_count
    if n < k:
        raise InsufficientPairs(n, k)
    snapshots.require_finite()

    mean, scale = np.zeros(k), np.ones(k)
    in_std = obs_std = None
    if standardize_inputs or standardize_observables:
        rows, mu, m2 = snapshots.pooled_moments()
        if standardize_inputs:
            in_std = standardizer_from_moments(snapshots.input_names, rows, mu[q:], m2[q:])
            mean[q:], scale[q:] = in_std.mean, in_std.scale
        if standardize_observables:
            obs_std = standardizer_from_moments(snapshots.observable_names, rows, mu[:q], m2[:q])
            mean[:q], scale[:q] = obs_std.mean, obs_std.scale
    # Columns after the intercept: x, then y_next under y's map.
    mean, scale = np.concatenate([mean, mean[:q]]), np.concatenate([scale, scale[:q]])
    shifts = np.concatenate([snapshots.shifts, snapshots.shifts[:, :q]], axis=1)
    stacked = standardized_stack(snapshots.factors, shifts, mean, scale)[:, 1:]
    r_factor = np.linalg.qr(stacked, mode="r")

    u, s, vt = np.linalg.svd(r_factor[:k, :k])
    numerical_rank = int(np.count_nonzero(s > _EPS * max(k, n) * s[0]))
    r = numerical_rank if rank is None else min(int(rank), numerical_rank)
    if r < 1:
        raise InsufficientPairs(n, k)

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
        numerical_rank=numerical_rank,
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
        Predictions for times 1 ... T; column t-1 is the estimate of y[t]. A
        transposed view of the (T, q) drive u^T B^T, built in the scan's row
        order and overwritten by it.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    q, p = model.state_dim, model.input_dim
    if y0.shape != (q,):
        raise DimensionMismatch(f"y0 must have length {q}, got {y0.shape}")
    if inputs.shape[0] != p:
        raise DimensionMismatch(f"inputs must have {p} rows, got {inputs.shape[0]}")
    return linear_recurrence(model.A, inputs.T @ model.B.T, y0).T


def linear_recurrence(a: np.ndarray, drive: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Run y[t] = A y[t-1] + drive[t-1] for t = 1 ... T; return rows y[1..T].

    The scan works in place: a writable, C-ordered float64 ``drive`` is
    overwritten by the states and returned (a 2-D one as itself). Any other
    drive is copied once first, and the caller's array is left as it was.

    Chunked form of the parallel linear-recurrence scan (Blelloch 1990;
    Martin & Cundy 2018). With chunks of length L and s the state entering a
    chunk, step j of that chunk is

        y[j] = A^(j+1) s + sum_{i<=j} A^(j-i) d[i].

    The sum is a matmul of the chunks' drive against the block
    lower-triangular Toeplitz matrix of A^0 ... A^(L-1), written back over
    the drive in blocks of at most ``_SCAN_BLOCK`` chunk rows across the
    batch. A partial last chunk goes with the chunk before it through a
    zero-padded copy of those two chunks. The chunk-entry states follow
    s[c+1] = A^L s[c] + e[c], with e[c] the last row of chunk c's sum: a
    recurrence of its own, T/L steps long, which this function solves by
    calling itself on a copy of the e[c], down to a single chunk. The A^(j+1)
    s term is added block by block, so nothing but the drive is as long as
    the drive. Agrees with the per-step loop to rounding, and with one
    matmul over a padded copy of the whole drive bit for bit.

    Parameters
    ----------
    a : array, shape (q, q)
    drive : array, shape (T, q), or (S, T, q) for S sequences at once
        Row t is the input contribution entering step t + 1.
    y0 : array, shape (q,), or (S, q) with a batch of drives
    """
    drive = np.asarray(drive)
    if not (drive.dtype == np.float64 and drive.flags.c_contiguous and drive.flags.writeable):
        drive = np.array(drive, dtype=float, order="C")
    y0 = np.asarray(y0, dtype=float)
    if drive.ndim == 2:
        linear_recurrence(a, drive[None], y0[None])
        return drive
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
        state, a_t = y0, powers[1].T
        for t in range(steps):
            state = state @ a_t + drive[:, t]
            drive[:, t] = state
        return drive

    # A product of one row goes to gemv, which rounds otherwise than gemm:
    # every product spans at least two chunks unless there is only one.
    full, rem = divmod(steps, L)
    chunks = full + (rem > 0)
    inplace = full if rem == 0 or full > 1 else 0
    per_block = max(2, _SCAN_BLOCK // batch)
    bounds = [*range(0, inplace, per_block), inplace]
    if len(bounds) > 2 and inplace - bounds[-2] == 1:
        del bounds[-2]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    rows = drive[:, : full * L].reshape(batch, full, L * q)  # a view: one row per whole chunk

    # Row-vector form: block (i, j) of the Toeplitz matrix is (A^(j-i))^T.
    lag = np.arange(L)[None, :] - np.arange(L)[:, None]
    toeplitz = powers[np.maximum(lag, 0)].transpose(0, 1, 3, 2) * (lag >= 0)[:, :, None, None]
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(L * q, L * q)
    first = full - 1  # the tail's first chunk, copied before the blocks overwrite it
    if rem:
        tail = np.zeros((batch, chunks - first, L * q))
        tail.reshape(batch, -1, q)[:, : steps - first * L] = drive[:, first * L :]
        tail = tail @ toeplitz
    for lo, hi in blocks:  # numpy reads each block from a copy of it
        np.matmul(rows[:, lo:hi], toeplitz, out=rows[:, lo:hi])

    carry = np.array((rows if inplace else tail)[:, : chunks - 1, -q:])
    if chunks > 1:
        linear_recurrence(powers[L], carry, y0)
    lift = powers[1:].transpose(2, 0, 1).reshape(q, L * q)

    def starts(lo, hi):  # the states entering chunks lo .. hi-1
        if lo:
            return carry[:, lo - 1 : hi - 1]
        return np.concatenate([y0[:, None], carry[:, : hi - 1]], axis=1)

    flat = rows.reshape(batch, -1)  # numpy may copy a 3-D view it adds into; not a 2-D one
    for lo, hi in blocks:
        flat[:, lo * L * q : hi * L * q] += (starts(lo, hi) @ lift).reshape(batch, -1)
    if rem:
        tail += starts(first, chunks) @ lift
        done = inplace * L  # steps the blocks wrote
        drive[:, done:] = tail.reshape(batch, -1, q)[:, done - first * L : steps - first * L]
    return drive


def save_model(model: StateSpaceModel, path: str | Path, provenance: dict | None = None) -> None:
    """Write ``model``, with the ``provenance`` record of its run if given."""
    write_json(path, {"format": MODEL_FORMAT, "version": MODEL_VERSION, "model": model}, provenance)


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
        return from_plain(StateSpaceModel, payload.get("model"), key="model")
    except (ValueError, DimensionMismatch) as exc:
        raise CorruptFile(path, f"missing or malformed field: {exc}") from None
