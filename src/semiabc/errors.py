"""Exception types shared across the toolkit.

Two broad classes matter operationally: configuration/validation problems
(CLI exit code 1) and numerical failures such as singular covariances or
rank-deficient regressions (CLI exit code 2).
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: missing/unknown keys, out-of-range values.

    `key` is the dotted path of the offending value within the object that
    raised; `under(prefix)` re-roots it where a parser found that object.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(f"{key!r} {message}" if key else message)
        self.message, self.key = message, key

    def under(self, prefix: str) -> "ConfigError":
        return ConfigError(self.message, f"{prefix}.{self.key}" if self.key else prefix)


class ArtifactError(ValueError):
    """Missing, malformed, or provenance-inconsistent persisted artifact."""


class NumericalError(RuntimeError):
    """A numerical operation failed (singular matrix, rank deficiency, ...)."""


class SingularMatrixError(NumericalError):
    """SPD solve failed even after the jitter ladder was exhausted."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class RankDeficientError(NumericalError):
    """Least squares design is rank deficient and no ridge penalty was given."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition number {condition:.3e})")
        self.condition = condition
