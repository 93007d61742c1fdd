"""Exception types shared across the package.

Each carries only its message. The CLI maps them onto exit codes:
input/format problems -> 2, window-level numerical failures -> 3, I/O
failures -> 4, a worker process that died -> 5.
"""


class PanelFormatError(ValueError):
    """A prices or metadata file violates the expected CSV format."""


class BaselineMismatchError(ValueError):
    """A null-model baseline does not match the panel it is applied to."""


class DegenerateWindowError(RuntimeError):
    """An asset has zero variance inside a window, so it cannot be standardized."""


class EigenComputationError(RuntimeError):
    """The symmetric eigensolver failed to meet its accuracy contract."""


class WorkerProcessError(RuntimeError):
    """A worker process of the null ensemble or of the window loop ended
    before returning its block."""
