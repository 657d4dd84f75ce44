"""Error taxonomy shared by every module.

Each class marks a distinct failure domain so the CLI can map them to
stable exit codes and tests can assert on the category rather than on
message text.
"""


class ItmatchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ItmatchError):
    """Shapes or axes that violate an operation's contract."""


class ContractError(ItmatchError):
    """API misuse: a non-scalar loss, a score grid that is not square, a missing gradient or parameter."""


class InputError(ItmatchError):
    """Bad user-supplied data: out-of-vocabulary id, empty caption."""


class ConfigError(ItmatchError):
    """Invalid configuration value or combination."""


class DataError(ItmatchError):
    """Corrupt or inconsistent dataset / checkpoint files."""
