"""Exception types shared across the toolkit.

The three bases map onto CLI exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

from __future__ import annotations


class ConfigError(Exception):
    """Invalid run configuration (bad paths, impossible split sizes, ...)."""


class DataError(Exception):
    """Input data violates a contract (schema, NaNs, file formats, ...)."""


class NumericError(Exception):
    """A numeric routine cannot proceed (dimensions, degenerate systems)."""


class MissingColumn(DataError):
    def __init__(self, name: str, path: str = ""):
        self.name = name
        self.path = path
        super().__init__(f"required column {name!r} absent from {path or 'file'}")


class NaNInRetainedColumn(DataError):
    def __init__(self, name: str, row: int):
        self.name = name
        self.row = row
        super().__init__(f"NaN in retained column {name!r} at row {row}")


class NonUniformTimestamps(DataError):
    def __init__(self, row: int, expected_dt: float, actual_dt: float):
        self.row = row
        super().__init__(
            f"timestamp spacing {actual_dt!r} at row {row} deviates more than 1% "
            f"from declared {expected_dt!r}"
        )


class UnknownChannel(DataError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"channel {name!r} not present in dataset")


class AllSentinel(DataError):
    def __init__(self, channel: str):
        self.channel = channel
        super().__init__(
            f"channel {channel!r} has a gated sentinel run with no valid anchor"
        )


class SchemaMismatch(DataError):
    def __init__(self, detail: str):
        super().__init__(f"datasets disagree on schema: {detail}")


class TooShort(DataError):
    def __init__(self, experiment_id: str, rows: int):
        self.experiment_id = experiment_id
        super().__init__(
            f"experiment {experiment_id!r} has {rows} rows; at least 2 required"
        )


class EmptySample(DataError):
    def __init__(self, which: str = "sample"):
        super().__init__(f"{which} is empty")


class ConstantChannel(DataError):
    def __init__(self, detail: str = "all samples identical"):
        super().__init__(f"uniform benchmark undefined: {detail}")


class ConstantActual(DataError):
    def __init__(self):
        super().__init__("coefficient of determination undefined for constant actuals")


class VersionMismatch(DataError):
    def __init__(self, found, supported):
        self.found = found
        super().__init__(f"model file version {found!r} not supported (expected {supported!r})")


class CorruptFile(DataError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"cannot read {path}: {detail}")


class StaleArtifact(DataError):
    def __init__(self, path: str, reason: str = "was written under another config or seed"):
        super().__init__(f"{path} {reason}; rerun the stage that writes it")


class UnsupportedWord(DataError):
    def __init__(self, line_no: int, token: str):
        self.line_no = line_no
        self.token = token
        super().__init__(f"unsupported g-code word {token!r} on line {line_no}")


class MalformedNumber(DataError):
    def __init__(self, line_no: int, token: str):
        self.line_no = line_no
        self.token = token
        super().__init__(f"malformed number in {token!r} on line {line_no}")


class NegativeParameter(DataError):
    def __init__(self, line_no: int, token: str):
        super().__init__(f"negative dwell or laser power {token!r} on line {line_no}")


class ZeroFeedMove(DataError):
    def __init__(self, command_index: int):
        self.command_index = command_index
        super().__init__(
            f"move at command {command_index} has no positive feed rate in effect"
        )


class InsufficientPulseLengthDiversity(DataError):
    def __init__(self, count: int):
        super().__init__(
            f"spectrogram needs at least 2 distinct pulse lengths, found {count}"
        )


class TooFewExperiments(ConfigError):
    def __init__(self, available: int, p: int):
        self.available = available
        self.p = p
        super().__init__(
            f"leave-{p}-out requires more than {p} experiments, found {available}"
        )


class InsufficientPairs(NumericError):
    def __init__(self, pairs: int, needed: int):
        super().__init__(
            f"{pairs} snapshot pairs cannot determine {needed} operator columns"
        )


class NonFiniteSnapshots(NumericError):
    def __init__(self, pairs: int):
        super().__init__(f"NaN or infinity among {pairs} snapshot pairs")


class EmptySurvivorSet(NumericError):
    def __init__(self):
        super().__init__("collinearity elimination would remove every feature")


class DimensionMismatch(NumericError):
    def __init__(self, detail: str):
        super().__init__(f"dimension mismatch: {detail}")


class GridMismatch(NumericError):
    def __init__(self, detail: str = "spectrogram grids differ"):
        super().__init__(detail)


class AllFoldsDiverged(NumericError):
    def __init__(self, folds: int, unstable: int, overflowed: int):
        super().__init__(
            f"all {folds} cross-validation folds diverged: the fitted A has spectral "
            f"radius above 1 in {unstable}, the rollout overflowed in {overflowed}"
        )


class NonFiniteArtifact(NumericError):
    def __init__(self, path: str):
        super().__init__(f"refusing to write NaN or -inf into {path}")

