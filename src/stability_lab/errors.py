"""Exception types shared across the package."""


class StabilityLabError(Exception):
    """Base class for all errors raised by stability-lab."""


class NegativeWeight(StabilityLabError):
    """A probability weight is negative or not finite (NaN, +inf or -inf)."""


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
    """A JSON document that the package reads (a run config, or any object
    in it or in a file it names: a domain, a distribution, a learner, a safe
    model entry) is missing a field, holds a field that its reader does not
    read or a key given twice ("repeated field"; the key rule
    core._known_fields), holds a value of the wrong JSON type ("expected
    <kind>, got <value>", from the one type rule core._json_value), or holds
    a value that cannot be used. JSON null is the wrong type for every
    field, never an absent one. A list of strings or of numbers names its
    first entry of the wrong type by its index ("weights[299]: expected a
    number, got 'x'"); a value that is not a list at all is named whole
    ("weights: expected a list of numbers, got 'x'").

    `path` names the value inside the document, keys joined by "." and list
    entries as "[i]" (for example "safe_models[1].model"), or is "" for the
    document itself; the message is "<path>: <reason>", or only the reason
    when the path is empty."""

    def __init__(self, path: str, reason: str):
        super().__init__(path, reason)
        self.path, self.reason = path, reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}" if self.path else self.reason
