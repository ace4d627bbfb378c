"""Error taxonomy shared by the library and the CLI exit-status mapping."""


class TncseError(Exception):
    """Base class; ``status`` is the machine-parsable CLI error class."""

    status = "error"


class ConfigError(TncseError, ValueError):
    status = "config-error"


class DataError(TncseError):
    status = "data-error"


class CheckpointError(TncseError):
    status = "checkpoint-error"


class NumericError(TncseError):
    status = "numeric-error"
