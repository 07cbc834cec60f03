"""Exception hierarchy shared by all gcs2d modules.

An error with a ``reason`` is a negative verdict on well-formed input: the
CLI reports it as ``{"error": {"reason", "message"[, "entity"]}}`` on stdout
with exit code 2.  Every other error is an input or system error (exit 1).
"""

from __future__ import annotations


class GcsError(Exception):
    """Base class for every error raised by this package."""

    reason: str | None = None


# ---------------------------------------------------------------- graph model


class DuplicateIdError(GcsError):
    """An entity id occurs more than once in a graph."""


class UnknownEndpointError(GcsError):
    """A constraint or subgraph selection references a missing entity id."""


class SelfLoopError(GcsError):
    """A constraint joins an entity to itself."""


class KindMismatchError(GcsError):
    """Entity kinds are not admissible for the requested operation."""


class BadValueError(GcsError):
    """A numeric parameter is outside its legal range."""


class TooSmallError(GcsError):
    """Structural analysis needs at least two entities."""


class ParseError(GcsError):
    """Input text is not a well-formed graph or solution document."""


# ------------------------------------------------------------------ henneberg


class MissingEdgeError(GcsError):
    """A vertex-split operation names an edge that is not present."""


class UnknownFixtureError(GcsError):
    """No fixture with the requested name exists."""


# ------------------------------------------------------------- decomposition


class NotReducibleError(GcsError):
    """Plan extraction requires a fully reducible, well-constrained graph."""

    reason = "not_reducible"


class UnsupportedStepError(GcsError):
    """A merge or placement falls outside the supported geometric cases."""

    reason = "unsupported_step"


# ------------------------------------------------------------------ geometry


class ParallelError(GcsError):
    """Two lines are parallel (or coincident) where an intersection is needed."""


class EmptyIntersectionError(GcsError):
    """The requested loci do not intersect."""

    reason = "empty_intersection"


class CoincidentError(GcsError):
    """Two circles coincide, so their intersection is not finite."""


class CoincidentPointsError(GcsError):
    """Two points expected to be distinct coincide."""


class LengthMismatchError(GcsError):
    """A rigid alignment was asked to map segments of different lengths."""


# ----------------------------------------------------------- plan execution


class BadBranchError(GcsError):
    """A branch selector entry does not name an available root."""

    reason = "bad_branch"


class UnderDeterminedError(GcsError):
    """A construction step leaves its target with free degrees of freedom."""

    reason = "under_determined"

    def __init__(self, entity: str, message: str | None = None):
        super().__init__(message or f"entity {entity!r} is under-determined")
        self.entity = entity

    def __reduce__(self):
        # Pickle and ``copy`` rebuild an exception as ``cls(*args)``, and
        # ``args`` holds the message only.
        return type(self), (self.entity, *self.args), self.__dict__


class MissingPlacementError(GcsError):
    """A solution does not place every entity the operation needs."""


class VerificationError(GcsError):
    """A computed placement violates a constraint beyond tolerance."""

    reason = "verification_failed"
