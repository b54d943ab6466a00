"""Shared exception types."""


class NumericalError(RuntimeError):
    """A numerical routine produced a non-finite or unusable result."""


class FeatureOverflowError(NumericalError):
    """Exponential feature map overflowed; enlarge the kernel lengthscale."""
