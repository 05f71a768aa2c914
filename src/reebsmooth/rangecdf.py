"""Range-integrated smoothing: push a field through a (surrogate) CDF.

Composing a scalar field with a continuous CDF squashes its range into
[0, 1], weighting level resolution by the measure's mass.  Strictly
monotone composition leaves the Reeb graph unchanged up to relabeling the
values; plateaus of the CDF collapse the corresponding bands exactly,
because vertices whose values fall in one flat segment all map to the same
float.  For vector-valued fields each coordinate gets its own CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import ScalarField, VectorField
from .errors import ValidationError
from .measures import ContinuousCDF, cdf_of_measure, ks_distance
from .reeb import ReebGraph, is_isomorphic, reeb_graph


@dataclass(frozen=True)
class CoordinatewiseCDF:
    """One CDF per coordinate of a vector-valued field."""

    cdfs: tuple

    def __post_init__(self):
        object.__setattr__(self, "cdfs", tuple(self.cdfs))
        if not self.cdfs:
            raise ValidationError("needs at least one coordinate CDF")
        for c in self.cdfs:
            if not isinstance(c, ContinuousCDF):
                raise ValidationError("coordinates must be ContinuousCDF")

    @property
    def dim(self):
        return len(self.cdfs)

    def lipschitz_bound(self):
        return max(c.lipschitz_bound() for c in self.cdfs)


def coordinatewise_ks(F, G):
    """max over coordinates of the KS distance (the sup-norm convention)."""
    if F.dim != G.dim:
        raise ValidationError("coordinate counts differ")
    return max(ks_distance(a, b) for a, b in zip(F.cdfs, G.cdfs))


def compose_cdf(f, F):
    """F applied to a scalar field's values."""
    vals = f.values if isinstance(f, ScalarField) else np.asarray(f, dtype=np.float64)
    return ScalarField(F(vals))


def coordinatewise_transform(f, F):
    """Each coordinate of a vector field through its own CDF."""
    vals = f.values if isinstance(f, VectorField) else np.asarray(f, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] != F.dim:
        raise ValidationError("field width does not match the CDF count")
    cols = [F.cdfs[j](vals[:, j]) for j in range(F.dim)]
    return VectorField(np.stack(cols, axis=1))


def range_integrated_reeb(X, f, measure_or_cdf):
    """Reeb graph of the field pushed through a CDF; returns (graph, cdf).

    `measure_or_cdf` is a 1-d empirical measure (its surrogate CDF is built
    here) or a ready ContinuousCDF.
    """
    F = measure_or_cdf if isinstance(measure_or_cdf, ContinuousCDF) else cdf_of_measure(measure_or_cdf)
    f = f if isinstance(f, ScalarField) else ScalarField(np.asarray(f, dtype=np.float64))
    return reeb_graph(X, compose_cdf(f, F)), F


def check_monotone_invariance(X, f, F, value_tol=1e-9):
    """Does composing with F only relabel the Reeb graph's values?

    Applicable when F is strictly increasing across the field's range and no
    two distinct values collide in floating point after mapping.  Then the
    composed graph must be isomorphic to the original with remapped values.
    """
    f = f if isinstance(f, ScalarField) else ScalarField(np.asarray(f, dtype=np.float64))
    lo, hi = float(f.values.min()), float(f.values.max())
    report = {"applicable": True, "passed": None, "reason": ""}
    if not F.strictly_increasing_on(lo, hi):
        report["applicable"] = False
        report["reason"] = "CDF is not strictly increasing across the field range"
        return report
    base = reeb_graph(X, f)
    mapped_nodes = F(base.node_values)
    # collisions at regular interior values only merge plateau levels, which
    # splice away; collisions between the graph's own node values genuinely
    # change the structure and make the question ill-posed in floats
    if len(base.edges) and not np.all(
        mapped_nodes[base.edges[:, 0]] < mapped_nodes[base.edges[:, 1]]
    ):
        report["applicable"] = False
        report["reason"] = "node values collide after mapping at float precision"
        return report
    composed = reeb_graph(X, compose_cdf(f, F))
    remapped = ReebGraph(mapped_nodes, base.node_reps, base.edges)
    report["passed"] = bool(is_isomorphic(composed, remapped, value_tol=value_tol))
    if not report["passed"]:
        report["reason"] = "composed graph differs from the value-remapped original"
    return report
