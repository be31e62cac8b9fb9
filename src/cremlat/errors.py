"""Exception types shared across the package."""


class CremlatError(Exception):
    """Base class for all package errors."""


class UnknownPoint(CremlatError):
    """A point id is not present in the configuration."""


class NotOnHyperboloid(CremlatError):
    """A class required to have self-intersection 1 does not."""


class InvalidPair(CremlatError):
    """Two classes cannot be at finite hyperbolic distance (pairing < 1)."""


class InvalidCharacteristic(CremlatError):
    """A characteristic fails validation where a valid one is required."""


class MissingResolutionData(CremlatError):
    """The operation needs a resolution intersection matrix."""


class UnsupportedClassSupport(CremlatError):
    """A class is supported at points the map cannot account for."""


class BasePointCollision(CremlatError):
    """Disjoint-support composition called on maps whose loci share ids."""


class NotInKPerp(CremlatError):
    """A twist parameter does not pair to zero with the canonical vector."""


class IdentityTwist(CremlatError):
    """The (0,0) twist has no characteristic (it is the identity)."""


class TooManyBasePoints(CremlatError):
    """The degree lower bound only applies up to nine base points."""


class NoDecrease(CremlatError):
    """No predecessor strictly decreases the degree (internal inconsistency)."""


class MalformedFamily(CremlatError):
    """A subgraph family member is missing, disconnected, or lacks endpoints."""


class IndexOutOfRange(CremlatError, IndexError):
    """A germ index does not address the germ set."""


class WrongArity(CremlatError):
    """An operation received the wrong number of points."""
