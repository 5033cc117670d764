"""Exception types shared across the package."""


class GapestError(Exception):
    """Base class for errors raised by this package."""


class DistributionSpecError(GapestError, ValueError):
    """A distribution spec string or parameter set is invalid."""


class DataFormatError(GapestError, ValueError):
    """An input data file is malformed."""


class EstimationError(GapestError, ValueError):
    """An estimator or sampler received data it cannot process, at data row ``row`` if given."""

    def __init__(self, *args, row: int | None = None):
        super().__init__(*args)
        self.row = row
