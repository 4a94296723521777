"""Exception types shared across the package.

Every error raised by the public API is one of these, so callers can
map failures to a category without string matching. Each class names
its own in `category`, which the command line driver prints as the
``error:<category>:`` prefix of its one stderr line.
"""


class DplqrError(Exception):
    """Base class for all package errors."""

    category = "internal"


class ConfigError(DplqrError):
    """Invalid hyperparameters, grids, or option combinations."""

    category = "config"


class DataError(DplqrError):
    """Malformed input data: bad shapes, missing cells, unknown columns."""

    category = "data"


class TrainingError(DplqrError):
    """Optimization failed: non-finite losses or gradients, or too many
    failed replicates in an experiment."""

    category = "training"


class SingularMatrixError(DplqrError):
    """A matrix that must be positive definite is not."""

    category = "singular"
