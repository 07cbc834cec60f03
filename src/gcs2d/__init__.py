"""2D geometric constraint graphs: structural rigidity diagnosis, minimally
rigid graph generation, bottom-up cluster decomposition, and numeric
ruler-and-compass construction with branch enumeration.

Two modules load on first use rather than with the package: ``henneberg``
(graph generation and the fixture catalog) and ``render`` (DOT and SVG).
Their names resolve through the module ``__getattr__`` below, so
``import gcs2d`` and a CLI process that runs ``analyze``, ``classify`` or
``solve`` do not compile them.
"""

from .decompose import (
    AlignCluster,
    Cluster,
    DecompositionResult,
    MergeRecord,
    Plan,
    PlaceByTwoLoci,
    ReducibilityClass,
    TriangleMerge,
    classify,
    decompose,
    extract_plan,
    seed_clusters,
)
from .errors import (
    BadBranchError,
    BadValueError,
    CoincidentError,
    CoincidentPointsError,
    DuplicateIdError,
    EmptyIntersectionError,
    GcsError,
    KindMismatchError,
    LengthMismatchError,
    MissingEdgeError,
    MissingPlacementError,
    NotReducibleError,
    ParallelError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnderDeterminedError,
    UnknownEndpointError,
    UnknownFixtureError,
    UnsupportedStepError,
    VerificationError,
)
from .geometry import (
    CircleRep,
    Intersection,
    LineRep,
    Motion,
    Placement,
    Point2,
    fold_angle,
    intersect_circle_circle,
    intersect_line_circle,
    intersect_line_line,
    line_through_point_angle,
    line_through_points,
    lines_close,
    rigid_align,
    unsigned_line_angle,
)
from .graph import (
    Constraint,
    ConstraintGraph,
    ConstraintKind,
    Entity,
    EntityKind,
    angle,
    build_graph,
    deficiency,
    distance,
    dof,
    fixed_circle,
    free_circle,
    incidence,
    line,
    parse,
    point,
    point_line_distance,
    serialize,
    tangency,
)
from .rigidity import (
    Diagnosis,
    Verdict,
    diagnose_counting,
    diagnose_pebble,
    is_laman,
)
from .solve import (
    ResidualReport,
    Solution,
    enumerate_solutions,
    execute,
    solution_from_dict,
    solution_to_dict,
    verify,
)

__version__ = "0.1.0"

# Names resolved on first access (PEP 562), by the submodule that holds them;
# the two submodules are attributes of the package too.
_LAZY = {
    **dict.fromkeys(
        ("henneberg", "H1", "H2", "HennebergSequence", "extend_h1", "extend_h2", "fixture",
         "fixture_names", "random_laman", "reduction_sequence", "replay_sequence"),
        "henneberg",
    ),
    **dict.fromkeys(("render", "to_dot", "to_svg"), "render"),
}


def __getattr__(name: str):
    source = _LAZY.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule here; importlib.import_module would first
    # import importlib, which a bare interpreter has not loaded.
    __import__(f"{__name__}.{source}")
    module = globals()[source]
    if name == source:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# What ``from gcs2d import *`` binds: the public names, the lazy ones included.
__all__ = sorted(name for name in __dir__() if not name.startswith("_"))
