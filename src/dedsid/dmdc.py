"""Linear state-space surrogate fitting from snapshot pairs.

The model is y[t+1] = A y[t] + B u[t] with observables treated directly as
state (identity output map, no feedthrough): with gappy sensing there is no
separate latent state worth estimating. A and B come from one economy SVD of
the stacked snapshot matrix; no reduced-order projection is applied unless a
rank cap is requested, because the feature count is tiny next to the sample
count and full rank keeps the operator interpretable per channel.
"""

from __future__ import annotations

import base64
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import StandardizationParams, TimeSeriesDataset
from .errors import (
    CorruptFile,
    DimensionMismatch,
    InsufficientPairs,
    RankDeficiencyWarning,
    SchemaMismatch,
    TooShort,
    VersionMismatch,
)

MODEL_FORMAT = "dedsid.model"
MODEL_VERSION = 1

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SnapshotSet:
    """Aligned snapshot columns: y_next[:, k] follows y_cur[:, k] under u_cur[:, k].

    Pairs never straddle experiment boundaries; ``build_snapshots`` enforces
    that by pairing within each dataset before concatenating.
    """

    y_cur: np.ndarray
    y_next: np.ndarray
    u_cur: np.ndarray
    observable_names: tuple[str, ...]
    input_names: tuple[str, ...]
    sample_rate_hz: float

    def __post_init__(self):
        q, n = self.y_cur.shape
        if self.y_next.shape != (q, n):
            raise DimensionMismatch("y_next shape differs from y_cur")
        if self.u_cur.shape[1] != n:
            raise DimensionMismatch("u_cur column count differs from y_cur")
        if len(self.observable_names) != q:
            raise DimensionMismatch("observable name count differs from state rows")
        if len(self.input_names) != self.u_cur.shape[0]:
            raise DimensionMismatch("input name count differs from input rows")

    @property
    def pair_count(self) -> int:
        return self.y_cur.shape[1]


def build_snapshots(
    datasets: Sequence[TimeSeriesDataset],
    inputs: Sequence[str],
    observables: Sequence[str],
) -> SnapshotSet:
    """Assemble snapshot pairs from one or more experiments.

    Each experiment with m rows contributes m - 1 pairs; experiments must
    agree on channel schema and sample rate.
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
    y_cur, y_next, u_cur = [], [], []
    for ds in datasets:
        if ds.row_count < 2:
            raise TooShort(ds.experiment_id, ds.row_count)
        obs = ds.matrix_for(observables)
        inp = ds.matrix_for(inputs)
        y_cur.append(obs[:-1].T)
        y_next.append(obs[1:].T)
        u_cur.append(inp[:-1].T)
    return SnapshotSet(
        y_cur=np.concatenate(y_cur, axis=1),
        y_next=np.concatenate(y_next, axis=1),
        u_cur=np.concatenate(u_cur, axis=1),
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


def fit(
    snapshots: SnapshotSet,
    rank: int | None = None,
    input_standardizer: StandardizationParams | None = None,
    observable_standardizer: StandardizationParams | None = None,
) -> StateSpaceModel:
    """Solve y_next = [A B] [y_cur; u_cur] in the least-squares sense.

    Parameters
    ----------
    snapshots : SnapshotSet
        Aligned pairs; needs at least q + p columns to determine the operator.
    rank : int, optional
        Cap on the SVD truncation rank. Default keeps every singular value
        above the numerical-rank cutoff (machine epsilon times the larger
        dimension of the stacked matrix, relative to the largest value).

    Notes
    -----
    With Omega = [y_cur; u_cur] = eta @ diag(s) @ zeta*, the minimum-norm
    solution is [A B] = y_next @ zeta @ diag(1/s) @ eta*, split row-wise into
    the state and input blocks of eta. Rank deficiency of Omega is survivable
    (truncation handles it) but suspicious, so it warns rather than raises.
    """
    q = snapshots.y_cur.shape[0]
    p = snapshots.u_cur.shape[0]
    n = snapshots.pair_count
    if n < q + p:
        raise InsufficientPairs(n, q + p)

    omega = np.vstack([snapshots.y_cur, snapshots.u_cur])
    eta, s, zeta_t = np.linalg.svd(omega, full_matrices=False)
    if s[0] == 0.0:
        numerical_rank = 0
    else:
        numerical_rank = int(np.count_nonzero(s > _EPS * max(omega.shape) * s[0]))
    r = numerical_rank if rank is None else min(int(rank), numerical_rank)
    if r < 1:
        raise InsufficientPairs(n, q + p)
    if numerical_rank < q + p:
        warnings.warn(
            f"snapshot matrix rank {numerical_rank} < {q + p}; "
            "solution is minimum-norm on a deficient span",
            RankDeficiencyWarning,
            stacklevel=2,
        )

    # y_next @ zeta_r, scaled by 1/s_r, then projected back through eta_r.
    proj = (snapshots.y_next @ zeta_t[:r].T) / s[:r]
    a = proj @ eta[:q, :r].T
    b = proj @ eta[q:, :r].T
    return StateSpaceModel(
        A=a,
        B=b,
        observable_names=snapshots.observable_names,
        input_names=snapshots.input_names,
        sample_rate_hz=snapshots.sample_rate_hz,
        svd_rank_used=r,
        input_standardizer=input_standardizer,
        observable_standardizer=observable_standardizer,
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
    lower-triangular Toeplitz matrix of A^0 ... A^(L-1); chunk-entry states
    are carried with A^L in a loop over the T/L chunks; the A^(j+1) s term is
    one more matmul. Agrees with the per-step loop to rounding.

    Parameters
    ----------
    a : array, shape (q, q)
    drive : array, shape (T, q)
        Row t is the input contribution entering step t + 1.
    y0 : array, shape (q,)
    """
    drive = np.asarray(drive, dtype=float)
    steps, q = drive.shape
    # sqrt(T) chunks balance the per-chunk carry loop against the L-fold
    # matmul work; the cap on L*q bounds the Toeplitz matrix for wide states.
    L = max(1, min(round(steps**0.5), 64, 256 // max(q, 1)))

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
    # finite power (L = 1 is the per-step loop).
    bad = ~np.isfinite(powers).all(axis=(1, 2))
    if bad.any():
        L = max(1, int(np.argmax(bad)) - 1)
        powers = powers[: L + 1]

    chunks = -(-steps // L)
    d = np.zeros((chunks * L, q))
    d[:steps] = drive
    # Row-vector form: block (i, j) of the Toeplitz matrix is (A^(j-i))^T.
    lag = np.arange(L)[None, :] - np.arange(L)[:, None]
    toeplitz = powers[np.maximum(lag, 0)].transpose(0, 1, 3, 2) * (lag >= 0)[:, :, None, None]
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(L * q, L * q)
    y = d.reshape(chunks, L * q) @ toeplitz

    starts = np.empty((chunks, q))
    state = np.asarray(y0, dtype=float)
    a_chunk = powers[L]
    ends = y[:, -q:]
    for c in range(chunks):
        starts[c] = state
        state = a_chunk @ state + ends[c]
    y += starts @ powers[1:].transpose(2, 0, 1).reshape(q, L * q)
    return y.reshape(chunks * L, q)[:steps]


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


def save_model(model: StateSpaceModel, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "sample_rate_hz": model.sample_rate_hz,
        "svd_rank_used": model.svd_rank_used,
        "observables": list(model.observable_names),
        "inputs": list(model.input_names),
        "A": _encode_matrix(model.A),
        "B": _encode_matrix(model.B),
        "input_standardizer": (
            model.input_standardizer.to_dict() if model.input_standardizer else None
        ),
        "observable_standardizer": (
            model.observable_standardizer.to_dict() if model.observable_standardizer else None
        ),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> StateSpaceModel:
    path = str(path)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptFile(path, str(exc)) from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise CorruptFile(path, "not a model file")
    if payload.get("version") != MODEL_VERSION:
        raise VersionMismatch(payload.get("version"), MODEL_VERSION)
    try:
        in_std = payload["input_standardizer"]
        obs_std = payload["observable_standardizer"]
        return StateSpaceModel(
            A=_decode_matrix(payload["A"], path),
            B=_decode_matrix(payload["B"], path),
            observable_names=tuple(payload["observables"]),
            input_names=tuple(payload["inputs"]),
            sample_rate_hz=float(payload["sample_rate_hz"]),
            svd_rank_used=int(payload["svd_rank_used"]),
            input_standardizer=(
                StandardizationParams.from_dict(in_std) if in_std else None
            ),
            observable_standardizer=(
                StandardizationParams.from_dict(obs_std) if obs_std else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(path, f"missing or malformed field: {exc}") from None
