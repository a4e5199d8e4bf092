"""Dessins d'enfants of bipartite graphs: enumeration, classification, genus."""

from .perm import (
    CycleParseError,
    Permutation,
    compose,
    conjugate,
    cycle_type,
    format_cycles,
    identity,
    is_even,
    parse_cycles,
)
from .permgroup import CapExceededError, PermGroup, group_from_generators
from .bgraph import (
    BipartiteGraph,
    EdgeActionGroup,
    GraphParseError,
    GraphPassport,
    GraphStructureError,
    PlainGraph,
    automorphism_group,
    cleanify,
    parse_bipartite,
    parse_plain,
)
from .rotation import (
    LocalRotation,
    RotationPair,
    enumerate_pairs,
    local_rotations,
)
from .dessin import (
    DessinInvariants,
    DessinPassport,
    MonodromyFingerprint,
    NonTransitiveError,
    dualizable_oracle,
    face_permutation,
    invariants,
    is_dualizable,
    mirror,
    monodromy_group,
    wilson,
)
from .classify import (
    BudgetExceededError,
    ClassificationReport,
    DessinRecord,
    InternalInvariantError,
    act,
    canonical_form,
    classify,
    stabilizer,
    wilson_orbit_targets,
)
from .graphgenus import GenusBudgetError, GenusRange, genus_histogram, genus_range
from .io import ReportDocument, ReportFormatError, build_document, parse_report, serialize_report

__version__ = "0.1.0"
