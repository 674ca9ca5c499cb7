"""Exception types shared across the package."""


class PostcalError(Exception):
    """Base class for package errors."""


class ConfigError(PostcalError):
    """Invalid configuration document or command-line usage."""


class DataError(PostcalError):
    """Input records or metadata violate a structural requirement."""


class RankDeficiencyError(PostcalError):
    """The calibration cross-product matrix is rank deficient.

    ``deficient_blocks`` names the (variable, domain) constraint blocks that
    could not be pivoted, typically empty variable-by-domain cells.
    """

    def __init__(self, message: str, deficient_blocks=()):
        super().__init__(message)
        self.deficient_blocks = tuple(deficient_blocks)


class NumericalError(PostcalError):
    """A numeric computation produced an unusable result.

    ``models`` holds the batch positions of the models at fault when a
    batched sampler call raises it.
    """

    def __init__(self, message: str, models=()):
        super().__init__(message)
        self.models = tuple(models)


class LinkSelectionError(PostcalError):
    """No admissible ratio denominator exists for a non-calibration cell."""
