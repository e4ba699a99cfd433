"""Exception types shared across the engine."""


class IcspError(Exception):
    """Base class for everything this package raises on purpose."""


class Inconsistency(IcspError):
    """The constraint store is unsatisfiable.

    Raised when propagation derives a contradiction: an element is forced
    into a set that is closed without it, a set relation is violated, or a
    variable runs out of usable values. Search catches this to backtrack.
    Outside search it is final: Engine.solve() keeps the first one and
    answers False from then on, and top-level callers such as the CLI
    turn it into an "inconsistent" verdict.
    """


class SourceContractError(IcspError):
    """An acquisition source broke its contract: it replied with an element
    its set already knows, or with a value that is neither None nor an
    element (see isets.is_element).

    This is a defect in the problem setup rather than an inconsistency of
    the constraints, so it deliberately does not subclass Inconsistency:
    search must not mask it by backtracking, repeated elements must
    surface as a diagnostic instead of a propagation loop, and a reply that
    is no element never enters a set.
    """
