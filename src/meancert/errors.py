"""Exception types shared across the package."""


class MeanCertError(Exception):
    """Base class for all meancert errors."""


class DimensionMismatch(MeanCertError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(MeanCertError, ValueError):
    """A matrix fails the positive-definiteness gate of ``SpdMatrix``."""


class ConvergenceFailure(MeanCertError):
    """Eigendecomposition did not meet its accuracy contract."""


class IllConditioned(MeanCertError):
    """Condition number exceeds the configured cap for a stable inverse, or a
    factorization of a certified positive definite input fails in double
    precision."""


class Singular(MeanCertError):
    """Matrix is numerically singular (pivot below threshold)."""


class DegenerateInput(MeanCertError):
    """Input degenerates the quantity being computed (e.g. a 0/0 ratio)."""


class PowerOverflow(MeanCertError):
    """A ``lam``-th power of a bound or a mean exceeds double precision (or,
    where every term of a comparison underflows to 0, falls below it)."""


class RequiresOrdered(MeanCertError):
    """Inputs must be strictly ordered (a < b) and are not."""


class WeightOrder(MeanCertError):
    """Weights violate the required ordering (v must not exceed tau)."""


class HypothesisViolated(MeanCertError):
    """A stated hypothesis failed; carries the name of the failing check."""

    def __init__(self, check_name: str, margin: float):
        self.check_name = check_name
        self.margin = margin
        super().__init__(f"hypothesis check {check_name!r} failed (margin {margin:.3e})")

    def __reduce__(self):
        # rebuild from both arguments: ``args`` holds only the message
        return type(self), (self.check_name, self.margin)


class ConstructionFailure(MeanCertError):
    """A randomized constructor exhausted its retries."""


class ConfigError(MeanCertError):
    """Invalid run configuration."""


class TrialFailed(MeanCertError):
    """A typed numerical failure inside one trial, re-raised with the trial's
    label (``id:trial``, or the sweep cell and trial) in its message.

    Built from the message alone so that it pickles across the process pool;
    the original error is its ``__cause__`` in the process that raised it.
    """
