"""Acceptance gate: the eleven shipping criteria, one test and one line each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
each test also prints a one-line summary with the measured numbers.
"""

import time

import numpy as np

from reebsmooth.complexes import ScalarField, VectorField
from reebsmooth.diagrams import (
    DiagramPoint,
    PersistenceDiagram,
    bottleneck,
)
from reebsmooth.experiments import ExperimentConfig, fig4_sweep, run_stability
from reebsmooth.measures import (
    EmpiricalMeasure,
    KernelSpec,
    cdf_of_measure,
    dtm,
    kdist_to_measure,
    kernel_distance,
    ks_distance,
    wasserstein2,
)
from reebsmooth.meshes import circle_complex, random_field, three_loop_rig, torus_mesh
from reebsmooth.rangecdf import check_monotone_invariance
from reebsmooth.reeb import is_isomorphic, reeb_graph
from reebsmooth.smoothing import (
    build_ambient_interleaving,
    build_local_interleaving,
    smooth_global,
    smooth_local,
    verify_commutativity,
    verify_function_preservation,
)

from oracles import bottleneck_oracle, slab_oracle


def _verdict(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_c01_sweep_matches_independent_slab_oracle():
    t0 = time.time()
    rig_X, _ = three_loop_rig()
    meshes = [circle_complex(24)[0], torus_mesh(10, 10)[0], rig_X]
    rng = np.random.default_rng(101)
    checked = 0
    for X in meshes:
        for _ in range(17):
            f = random_field(rng, X)
            assert is_isomorphic(reeb_graph(X, f), slab_oracle(X, f), value_tol=1e-9)
            checked += 1
    dt = time.time() - t0
    _verdict(
        "C01",
        checked >= 50 and dt < 120.0,
        f"reeb_graph == slab_oracle on {checked} random fields over 3 meshes in {dt:.1f}s",
    )


def test_c02_frozen_small_graphs():
    X, f = torus_mesh(12, 12)
    g = reeb_graph(X, f)
    deg = np.zeros(g.n_nodes, dtype=int)
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    torus_ok = g.n_nodes == 4 and sorted(deg.tolist()) == [1, 1, 3, 3] and g.betti1() == 1
    Xc, fc = circle_complex(24)
    gc = reeb_graph(Xc, fc)
    circle_ok = gc.n_nodes == 2 and gc.edges.tolist() == [[0, 1], [0, 1]]
    _verdict(
        "C02",
        torus_ok and circle_ok,
        "torus: 4 nodes, degrees {1,3,3,1}, betti1=1; circle: 2 nodes, 2 parallel edges",
    )


def test_c03_epsilon_smoothing_contraction():
    X, f = circle_complex(32)
    ok = True
    spans = []
    for eps, betti in ((0.5, 1), (0.9, 1), (1.1, 0)):
        g = smooth_global(X, f, eps)
        ok = ok and g.betti1() == betti
        if betti == 1:
            loop_vals = sorted(set(g.node_values.tolist()))[1:-1]
            span = loop_vals[1] - loop_vals[0]
            spans.append(span)
            ok = ok and abs(span - (2.0 - 2.0 * eps)) <= 1e-9
    _verdict(
        "C03",
        ok,
        f"betti1 = 1,1,0 at eps = 0.5,0.9,1.1; surviving spans {spans} = L-2eps within 1e-9",
    )


def test_c04_constant_factor_reduction():
    fixtures = [circle_complex(20), torus_mesh(8, 8), three_loop_rig()]
    ok = True
    for X, f in fixtures:
        for eps in (0.15, 0.4):
            r = ScalarField(np.full(X.n_vertices, eps))
            ok = ok and is_isomorphic(smooth_local(X, f, r), smooth_global(X, f, eps))
    _verdict("C04", ok, "smooth_local(r == eps) isomorphic to smooth_global(eps) on all fixtures")


def test_c05_function_level_stability():
    rng = np.random.default_rng(55)
    worst_dtm, worst_ker = -np.inf, -np.inf
    spec = KernelSpec(0.6)
    for _ in range(100):
        n1, n2 = rng.integers(2, 33, size=2)
        mu = EmpiricalMeasure(rng.normal(size=(n1, 2)), rng.dirichlet(np.ones(n1)))
        nu = EmpiricalMeasure(rng.normal(size=(n2, 2)), rng.dirichlet(np.ones(n2)))
        m = float(rng.uniform(0.05, 1.0))
        grid = rng.uniform(-3, 3, size=(200, 2))
        gap = float(np.max(np.abs(dtm(mu, m, grid) - dtm(nu, m, grid))))
        worst_dtm = max(worst_dtm, gap - wasserstein2(mu, nu) / np.sqrt(m))
        km = np.array([kdist_to_measure(mu, spec, x) for x in grid])
        kn = np.array([kdist_to_measure(nu, spec, x) for x in grid])
        worst_ker = max(worst_ker, float(np.max(np.abs(km - kn))) - kernel_distance(mu, nu, spec))
    _verdict(
        "C05",
        worst_dtm <= 1e-9 and worst_ker <= 1e-9,
        f"100 measure pairs: dtm excess {worst_dtm:.2e}, kernel excess {worst_ker:.2e} (tol 1e-9)",
    )


def test_c06_smoothed_graph_stability_harness():
    t0 = time.time()
    outcomes = {}
    for mode in ("dtm", "kernel"):
        report = run_stability(ExperimentConfig.from_dict({"mode": mode, "trials": 100, "seed": 0}))
        outcomes[mode] = (len(report["violations"]), report["max_excess"])
        assert report["all_pass"], report["violations"]
    dt = time.time() - t0
    _verdict(
        "C06",
        all(v[0] == 0 for v in outcomes.values()) and dt < 600.0,
        f"100 trials/mode, violations {dict(outcomes)} in {dt:.0f}s (one-sided proxy check)",
    )


def test_c07_range_integrated_stability():
    report = run_stability(ExperimentConfig.from_dict({"mode": "range", "trials": 100, "seed": 0}))
    assert report["all_pass"], report["violations"]
    # the KS and Lipschitz terms the bound uses, against dense-grid oracles
    rng = np.random.default_rng(77)
    worst_ks, worst_lip = 0.0, 0.0
    for _ in range(25):
        F = cdf_of_measure(
            EmpiricalMeasure.from_raw(rng.uniform(-4, 4, 6)[:, None], np.ones(6))
        )
        G = cdf_of_measure(
            EmpiricalMeasure.from_raw(rng.uniform(-4, 4, 5)[:, None], np.ones(5))
        )
        grid = np.union1d(np.linspace(-6, 6, 200_001), np.union1d(F.knots, G.knots))
        ks_dense = float(np.max(np.abs(F(grid) - G(grid))))
        worst_ks = max(worst_ks, abs(ks_distance(F, G) - ks_dense))
        slopes = np.diff(F(grid)) / np.diff(grid)
        worst_lip = max(worst_lip, abs(F.lipschitz_bound() - float(np.max(slopes))))
    _verdict(
        "C07",
        worst_ks <= 1e-9 and worst_lip <= 1e-9,
        f"100 range trials, 0 violations; KS oracle gap {worst_ks:.2e}, Lip gap {worst_lip:.2e}",
    )


def test_c08_monotone_invariance():
    X, f = torus_mesh(12, 12)
    rng = np.random.default_rng(88)
    passed = 0
    for _ in range(20):
        pts = np.sort(rng.uniform(-3.6, 3.6, size=8))
        pts[0], pts[-1] = -3.6, 3.6  # strictly increasing across the field range
        F = cdf_of_measure(EmpiricalMeasure.from_raw(pts[:, None], np.ones(8)))
        rep = check_monotone_invariance(X, f, F)
        if rep["applicable"] and rep["passed"]:
            passed += 1
    _verdict("C08", passed == 20, f"{passed}/20 strictly increasing CDFs leave the torus graph invariant")


def test_c09_factor_crossover_on_three_loop_fixture():
    report = fig4_sweep()
    ok = bool(report["qualitative_pass"]) and len(report["crossover_scales"]) > 0
    _verdict(
        "C09",
        ok,
        f"crossover scales {report['crossover_scales']}: kernel keeps the wide loop, "
        f"dtm keeps the outlier loop",
    )


def test_c10_interleaving_map_verification():
    rng = np.random.default_rng(110)
    fixtures = [circle_complex(20), torus_mesh(8, 8), three_loop_rig()]
    worst_pres, all_com = 0.0, True
    checked = 0
    for X, f in fixtures:
        r1 = ScalarField(rng.uniform(0.1, 0.9, X.n_vertices))
        r2 = ScalarField(rng.uniform(0.1, 0.9, X.n_vertices))
        pairs = [build_local_interleaving(X, f, r1, r2)]
        g = ScalarField(f.values + rng.uniform(-0.25, 0.25, X.n_vertices))
        pairs.append(build_ambient_interleaving(X, f, g))
        # d = 2 ambient case: vector-valued fields
        F2 = VectorField(np.stack([f.values, X.coords[:, 0]], axis=1))
        G2 = VectorField(F2.values + rng.uniform(-0.2, 0.2, F2.values.shape))
        pairs.append(build_ambient_interleaving(X, F2, G2))
        for pair in pairs:
            rep = verify_function_preservation(pair)
            com = verify_commutativity(pair)
            worst_pres = max(worst_pres, rep["max_violation"])
            all_com = all_com and rep["passed"] and com["passed"]
            checked += 1
    _verdict(
        "C10",
        worst_pres <= 1e-12 and all_com,
        f"{checked} map pairs (local, ambient, ambient d=2): preservation max "
        f"{worst_pres:.1e} <= 1e-12, commutativity all pass",
    )


def test_c11_bottleneck_exhaustive_agreement():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(200):
        dgms = []
        for _side in range(2):
            pts = []
            for _ in range(rng.integers(0, 7)):
                b = float(rng.uniform(-2, 2))
                pts.append(DiagramPoint(b, b + float(rng.uniform(0, 2)), 0, "ordinary"))
            dgms.append(PersistenceDiagram(tuple(pts)))
        worst = max(worst, abs(bottleneck(*dgms) - bottleneck_oracle(*dgms)))
    _verdict("C11", worst <= 1e-12, f"200 diagram pairs vs exhaustive matching: max gap {worst:.1e}")
