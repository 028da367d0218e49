"""Exception types shared across the package."""


class StabilityLabError(Exception):
    """Base class for all errors raised by stability-lab."""


class NegativeWeight(StabilityLabError):
    """A probability weight is negative."""


class NotNormalized(StabilityLabError):
    """Weights do not sum to one within tolerance."""


class LengthMismatch(StabilityLabError):
    """An array over a domain has the wrong shape: weights, tape variates,
    histogram values, or a shard matrix given to a race or returned by a
    learner. Raised only by core._require_shape, with one text that names
    the shape needed and the shape given."""


class DomainMismatch(StabilityLabError):
    """Two objects that must share a content domain do not."""


class DomainTooLarge(StabilityLabError):
    """An exhaustive enumeration (of events or output atoms) exceeds its cap."""


class EmptyList(StabilityLabError):
    """An operation over a collection of models received none."""


class EmptyDataset(StabilityLabError):
    """A dataset that must be non-empty is empty."""


class DatasetTooSmall(StabilityLabError):
    """A dataset is too small for the requested construction."""


class EmptySafeAssignment(StabilityLabError):
    """A safe-model assignment with no entries where one is required."""


class DegenerateTV(StabilityLabError):
    """Total variation is 1, so the no-free-lunch threshold is vacuous."""


class SizeMismatch(StabilityLabError):
    """An input sample's size does not match the configured shard layout."""


class EmptyCorpus(StabilityLabError):
    """A corpus file produced no tokens."""


class ConfigError(StabilityLabError):
    """A run configuration is missing a field or holds an invalid value."""
