"""Constraint solving over incrementally-acquired finite domains.

Variables range over isets: sets whose membership is discovered during
propagation rather than given up front. Propagation keeps every known
value of every variable supported under the posted constraints, asking the
pluggable acquisition sources for new elements only when nothing already
known provides support.
"""

from .acquisition import (
    AcquisitionContext,
    AcquisitionSource,
    InteractiveSource,
    RangeSource,
    ScriptedSource,
)
from .engine import Engine
from .errors import IcspError, Inconsistency, SourceContractError
from .fd import FdConstraint, FdVariable, PairState, resolve_verifier
from .isets import (
    Difference,
    Element,
    Inclusion,
    Intersection,
    IsetStore,
    Member,
    Union,
    element_sort_key,
    parse_element,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionContext",
    "AcquisitionSource",
    "Difference",
    "Element",
    "Engine",
    "FdConstraint",
    "FdVariable",
    "IcspError",
    "Inclusion",
    "Inconsistency",
    "InteractiveSource",
    "Intersection",
    "IsetStore",
    "Member",
    "PairState",
    "RangeSource",
    "ScriptedSource",
    "SourceContractError",
    "Union",
    "element_sort_key",
    "parse_element",
    "resolve_verifier",
]
