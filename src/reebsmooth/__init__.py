"""reebsmooth: Reeb graphs of PL fields, measure-driven smoothing, stability checks."""

from .complexes import (
    ScalarField,
    SimplicialComplex,
    ThickenedComplex,
    VectorField,
    thicken_global,
    thicken_local,
)
from .diagrams import (
    DiagramPoint,
    PersistenceDiagram,
    bottleneck,
    extended_persistence,
    interleaving_lower_bound,
)
from .errors import GuardViolation, ParseError, ValidationError
from .measures import (
    ContinuousCDF,
    EmpiricalMeasure,
    KernelSpec,
    cdf_of_measure,
    dtm,
    dtm_field,
    kdist_field,
    kdist_to_measure,
    kernel_distance,
    ks_distance,
    wasserstein2,
)
from .rangecdf import check_monotone_invariance, range_integrated_reeb
from .reeb import ReebGraph, is_isomorphic, level_components, reeb_graph
from .smoothing import (
    InterleavingMapPair,
    SmoothingFactor,
    build_ambient_interleaving,
    build_local_interleaving,
    smooth_global,
    smooth_local,
    verify_commutativity,
    verify_function_preservation,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuousCDF",
    "DiagramPoint",
    "EmpiricalMeasure",
    "GuardViolation",
    "InterleavingMapPair",
    "KernelSpec",
    "ParseError",
    "PersistenceDiagram",
    "ReebGraph",
    "ScalarField",
    "SimplicialComplex",
    "SmoothingFactor",
    "ThickenedComplex",
    "ValidationError",
    "VectorField",
    "bottleneck",
    "build_ambient_interleaving",
    "build_local_interleaving",
    "cdf_of_measure",
    "check_monotone_invariance",
    "dtm",
    "dtm_field",
    "extended_persistence",
    "interleaving_lower_bound",
    "is_isomorphic",
    "kdist_field",
    "kdist_to_measure",
    "kernel_distance",
    "ks_distance",
    "level_components",
    "range_integrated_reeb",
    "reeb_graph",
    "smooth_global",
    "smooth_local",
    "thicken_global",
    "thicken_local",
    "verify_commutativity",
    "verify_function_preservation",
    "wasserstein2",
]
