"""Exception hierarchy shared across the pipeline.

Every raised error derives from WindPdmError so callers (notably the CLI)
can map validation failures and runtime failures onto distinct exit codes.
"""


class WindPdmError(Exception):
    """Base class for all windpdm errors."""


class DataError(WindPdmError):
    """Invalid input data or configuration (CLI exit code 2)."""


class RuntimeFailure(WindPdmError):
    """Operational failure of an otherwise valid request (CLI exit code 3)."""


class InvalidValue(DataError, ValueError):
    """A value given by the user (an option, a plan field, a name) that the
    callee cannot take; a ValueError as well, for callers that catch that."""


# --- ingest ---------------------------------------------------------------

class MalformedRow(DataError):
    pass


class MisalignedTimestamp(DataError):
    pass


class NonFiniteValue(DataError):
    pass


class UnknownAlarmCode(DataError):
    pass


class OutOfOrderAppend(DataError):
    pass


class UnknownTurbine(DataError):
    pass


class AlarmAlternationViolation(DataError):
    pass


# --- features -------------------------------------------------------------

class DegenerateMatrix(DataError):
    pass


class ConstantColumn(DataError):
    pass


# --- patterns / dataset ---------------------------------------------------

class NoPatternsFound(DataError):
    pass


class EmptyDataset(DataError):
    pass


# --- forest ---------------------------------------------------------------

class EmptyInput(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class NonFiniteFeature(DataError):
    pass


class CorruptModel(DataError):
    pass


class VersionMismatch(DataError):
    pass


# --- metrics --------------------------------------------------------------

class LengthMismatch(DataError):
    pass


class UnknownLabel(DataError):
    pass


class EmptyMatrix(DataError):
    pass


# --- broker ---------------------------------------------------------------

class TopicExists(DataError):
    pass


class UnknownTopic(DataError):
    pass


class StorageFailure(RuntimeFailure):
    pass


class OffsetAhead(DataError):
    pass


# --- agent ----------------------------------------------------------------

class MissingModel(DataError):
    pass


class MalformedPayload(DataError):
    pass


class FatalStorageFailure(RuntimeFailure):
    pass


# --- trainer --------------------------------------------------------------

class PlanInvalid(DataError):
    pass
