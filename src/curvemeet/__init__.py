"""Certified planar curve intersection.

Given two continuous corner-to-corner paths of the unit square, one from
(0,0) to (1,1) and one from (0,1) to (1,0), known only through rational
approximations with a continuity modulus, this package computes nested
rational parameter intervals certified to contain a crossing, using only
exact integer arithmetic in every decision.

Two modules that no pipeline module imports are loaded on first use of
the module or of one of its names below, not on import: the paper's
separated-track construction (`track`) and the exact `Fraction` segment
kernel (`segments`) that tests check the integer kernels against.
"""

import importlib

from .errors import (
    CurveMeetError,
    EffortExhausted,
    EndpointViolation,
    GridMismatch,
    InvariantViolation,
    NotConverged,
    NotSeparated,
    OutOfDomain,
    PreconditionViolated,
    SpecFileError,
    UsageError,
)
from .exact_geom import (
    DistanceEnclosure,
    Interval,
    Point,
    Rational,
    interval,
    pow2,
    pt,
    rat,
    smallest_n_below,
    sqrt_enclosure,
)
from .parity import (
    AlphaEnclosure,
    CrossingReport,
    alpha_enclosure,
    certify_alpha,
    function_parity,
    working_precision,
)
from .paths import (
    ExtendedPath,
    PathOracle,
    PolylinePath,
    QuadBezierPath,
    Side,
    TablePath,
    curved_pair,
    diagonal_pair,
    dyadic_grid,
    extend,
)
from .refine import (
    Certificate,
    PointApproximation,
    RefinementRecord,
    extract_point,
    refine_sequence,
    shrink_first,
    shrink_pair,
    verify_certificate,
)

__version__ = "0.1.0"

# the module that each lazy name is imported from on first use (PEP 562):
# the module's own name and the names it exports, for the paper's track
# route and the `Fraction` segment kernel, which no pipeline module imports
_LAZY = dict.fromkeys(
    "track Track crossing_count eval_track make_track perturb_to_separated"
    " n_approximation n_approximation_pair sup_track_distance weakly_separated".split(),
    "track",
) | dict.fromkeys(
    "segments Line SegKind SegRelation Segment classify_segment_pair orient"
    " sq_dist_point_segment sq_dist_segment_segment".split(),
    "segments",
)


def __getattr__(name: str):
    # importlib, not `from . import track`: that statement looks the
    # submodule up as an attribute first and would land here again
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)


# every public name that the imports above bind, but not the submodules
# that they bind as package attributes, nor importlib; and every lazy name
__all__ = sorted(_LAZY.keys() | {
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(importlib))
})
