"""Exception types shared across the package.

The CLI maps these onto its exit codes: ConfigError means a usage
problem, DataError a problem with input files or datasets, NumericError a
non-finite value where the numeric contract forbids one. A plain ValueError
is an argument the library rejects, not a usage problem, so the CLI lets it
propagate.
"""


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


class DataError(Exception):
    """Malformed or unusable input data (files, directories, datasets)."""


class NumericError(ArithmeticError):
    """NaN or infinity reached a place where finiteness is a hard contract."""
