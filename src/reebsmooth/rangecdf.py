"""Range-integrated smoothing: push a field through a (surrogate) CDF.

Composing a scalar field with a continuous CDF squashes its range into
[0, 1], weighting level resolution by the measure's mass.  Strictly
monotone composition leaves the Reeb graph unchanged up to relabeling the
values; plateaus of the CDF collapse the corresponding bands exactly,
because vertices whose values fall in one flat segment all map to the same
float.
"""

from __future__ import annotations

import numpy as np

from .complexes import ScalarField, as_scalar_field
from .measures import cdf_of_measure
from .reeb import ReebGraph, is_isomorphic, reeb_graph


def compose_cdf(f, F):
    """F applied to a scalar field's values."""
    return ScalarField(F(as_scalar_field(f).values))


def range_integrated_reeb(X, f, mu):
    """Reeb graph of the field pushed through the surrogate CDF of the 1-d
    empirical measure mu; returns (graph, cdf)."""
    F = cdf_of_measure(mu)
    return reeb_graph(X, compose_cdf(f, F)), F


def check_monotone_invariance(X, f, F):
    """Does composing with F only relabel the Reeb graph's values?

    This is the monotone-invariance statement (acceptance criterion C08).
    Applicable when F is strictly increasing across the field's range and no
    two distinct values collide in floating point after mapping.  Then the
    composed graph must be isomorphic to the original with remapped values
    (`is_isomorphic`'s default value tolerance, 1e-9).
    """
    f = as_scalar_field(f)
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
    report["passed"] = bool(is_isomorphic(composed, remapped))
    if not report["passed"]:
        report["reason"] = "composed graph differs from the value-remapped original"
    return report
