"""Exception types shared across the package.

The CLI maps these onto exit codes: input/format problems -> 2,
window-level numerical failures -> 3, I/O failures -> 4, a null-ensemble
worker process that died -> 5.
"""


class PanelFormatError(ValueError):
    """A prices or metadata file violates the expected CSV format."""


class BaselineMismatchError(ValueError):
    """A null-model baseline does not match the panel it is applied to."""


class DegenerateWindowError(RuntimeError):
    """An asset has zero variance inside a window, so it cannot be standardized."""

    def __init__(self, message, ticker=None, window_index=None):
        super().__init__(message)
        self.ticker = ticker
        self.window_index = window_index


class EigenComputationError(RuntimeError):
    """The symmetric eigensolver failed to meet its accuracy contract."""

    def __init__(self, message, residual=None, window_index=None):
        super().__init__(message)
        self.residual = residual
        self.window_index = window_index


class WorkerProcessError(RuntimeError):
    """A worker process of the null ensemble ended before returning its block."""
