"""Exception types shared across the toolkit."""
from __future__ import annotations


class SimulationError(Exception):
    """Base class for runtime failures inside an integrator or analysis."""

    time: float | None = None   # model time of the failure, None if unknown


class BlowUpError(SimulationError):
    """A state component became non-finite during integration.

    Carries the model time at which the blow-up was detected.
    """

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"state became non-finite at t={time:.6g}")


class NoExcitedStateError(SimulationError, ValueError):
    """No excited state: an analysis relative to peak activity cannot run."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate.

    ``line`` is the 1-based line number of the offending construct when the
    error came out of the config parser, otherwise ``None``.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
