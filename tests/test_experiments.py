"""Stability harness, fig4 sweep, and the CLI wiring."""

import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reebsmooth
from reebsmooth.cli import _build_parser, main
from reebsmooth.errors import ValidationError
from reebsmooth.experiments import (
    FIG4_DEFAULTS,
    ExperimentConfig,
    fig4_sweep,
    load_fig4_fixture,
    run_stability,
)
from reebsmooth.fileio import to_dot
from reebsmooth.smoothing import SmoothingFactor, smooth_local


def report_text(report):
    return json.dumps(report, sort_keys=True, indent=2)


def small_config(**over):
    base = {"mode": "dtm", "trials": 4, "seed": 5, "meshes": ("circle",)}
    base.update(over)
    return ExperimentConfig.from_dict(base)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"trials": 0})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"mode": "other"})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"mass": 1.5})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"meshes": ("nonexistent_mesh",)})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"unknown_key": 1})
    # the proxy factor and the pass tolerance are constants, not keys
    for key, value in (("proxy_factor", 5.0), ("tolerance", 1e-9)):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict({key: value})


def test_reports_byte_identical_across_thread_counts():
    a = report_text(run_stability(small_config(threads=1)))
    b = report_text(run_stability(small_config(threads=3)))
    assert a == b


def test_reports_deterministic_across_runs():
    cfg = small_config(mode="kernel", trials=3)
    assert report_text(run_stability(cfg)) == report_text(run_stability(cfg))


def test_zero_perturbation_gives_zero_lower_bound():
    # g = f and nu = mu: identical graphs, LB exactly 0
    for mode in ("dtm", "kernel", "range"):
        cfg = small_config(mode=mode, trials=2, bump_amplitude=0.0, jitter=0.0)
        report = run_stability(cfg)
        assert report["all_pass"]
        for t in report["trials"]:
            assert t["lower_bound"] == 0.0


def test_all_modes_pass_smoke():
    for mode in ("dtm", "kernel", "range"):
        report = run_stability(small_config(mode=mode, trials=3, meshes=("circle", "rig")))
        assert report["all_pass"], report
        assert report["violations"] == []
        for t in report["trials"]:
            assert t["lower_bound"] <= t["upper_bound"] + 1e-9


def test_report_schema_fields():
    report = run_stability(small_config(trials=2))
    assert report["version"] == 1
    assert "threads" not in report["config"]
    assert not {"proxy_factor", "tolerance"} & set(report["config"])
    assert set(report) >= {"version", "config", "trials", "violations", "max_excess", "all_pass"}
    t = report["trials"][0]
    assert set(t) >= {"trial", "mesh", "lower_bound", "upper_bound", "pass"}


def test_fig4_fixture_loads_and_crossover_holds():
    X, f, mu = load_fig4_fixture()
    assert X.n_vertices == 78  # welded loop joints share vertices
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    report = fig4_sweep(scales=[0.25, 2.25, 4.0])
    assert report["rows"][0]["dtm"]["betti1"] == 3  # tiny scale keeps all loops
    assert report["crossover_scales"]
    assert report["qualitative_pass"]


@pytest.mark.parametrize("scales", [[], 3, "abc", [0.5, -1.0], [float("inf")], [True]])
def test_fig4_sweep_checks_its_scales(scales):
    with pytest.raises(ValidationError):
        fig4_sweep(scales)


def test_fig4_large_scale_collapses_to_trees():
    report = fig4_sweep(scales=[40.0])
    row = report["rows"][0]
    assert row["dtm"]["betti1"] == 0
    assert row["kernel"]["betti1"] == 0


# -- CLI ----------------------------------------------------------------------


def _write_circle(tmp_path):
    from reebsmooth.fileio import complex_to_dict, dump_json
    from reebsmooth.meshes import circle_complex

    X, f = circle_complex(16)
    path = tmp_path / "circle.json"
    dump_json(complex_to_dict(X, field=f), path)
    return path


def test_cli_build_writes_graph(tmp_path, capsys):
    mesh = _write_circle(tmp_path)
    out = tmp_path / "g.json"
    assert main(["build", "--in", str(mesh), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["graph"]["nodes"]) == 2


def test_cli_build_missing_file_exit_2(tmp_path, capsys):
    assert main(["build", "--in", str(tmp_path / "nope.off")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "route", ["build --out", "build --dot", "stability --out", "fig4 --out", "fig4 --dot"]
)
def test_cli_unwritable_output_exits_2(tmp_path, capsys, route):
    command, flag = route.split()
    missing = tmp_path / "missing" / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text('trials = 1\nmeshes = ["circle"]\n')
    argv = {
        "build": ["build", "--in", str(_write_circle(tmp_path))],
        "stability": ["stability", "--config", str(cfg)],
        "fig4": ["fig4", "--scales", "2.25"],
    }[command]
    assert main(argv + [flag, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}") and "Traceback" not in err


def test_cli_build_rejects_unknown_vertex_id(tmp_path, capsys):
    mesh = tmp_path / "bad.json"
    vertices = [{"id": 0, "coords": [0.0]}, {"id": 1, "coords": [1.0]}]
    mesh.write_text(json.dumps({"vertices": vertices, "simplices": {"1": [[0, 1], [1, 2]]}}))
    assert main(["build", "--in", str(mesh), "--out", str(tmp_path / "g.json")]) == 3
    assert "unknown vertex id 2" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_cli_build_embedded_field(tmp_path, capsys):
    from reebsmooth.fileio import complex_to_dict, dump_json
    from reebsmooth.meshes import circle_complex

    X, _ = circle_complex(16)
    x = X.coords[:, 0].copy()  # not the height, so the default cannot pass for it
    mesh = tmp_path / "circle.json"
    dump_json(complex_to_dict(X, field=x), mesh)
    outs = []
    for spec in ("embedded", None, "x"):
        out = tmp_path / f"{spec}.json"
        argv = ["build", "--in", str(mesh), "--out", str(out)]
        assert main(argv + (["--field", spec] if spec else [])) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    bare = tmp_path / "bare.json"
    dump_json(complex_to_dict(X), bare)
    assert main(["build", "--in", str(bare), "--field", "embedded"]) == 2
    assert "carries no embedded field" in capsys.readouterr().err


def test_cli_build_field_expression(tmp_path):
    mesh = _write_circle(tmp_path)
    out = tmp_path / "g.json"
    assert main(["build", "--in", str(mesh), "--field", "x + 0*y", "--out", str(out)]) == 0
    vals = sorted(n["value"] for n in json.loads(out.read_text())["graph"]["nodes"])
    assert vals[0] == pytest.approx(-1.0)
    assert vals[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("spec", ["x[:3]", "'a'", "[1,2]", "x.reshape(3,4)", "x+1j", "sin"])
def test_cli_field_expression_must_give_one_real_per_vertex(tmp_path, capsys, spec):
    from reebsmooth.fileio import complex_to_dict, dump_json
    from reebsmooth.meshes import circle_complex

    mesh = tmp_path / "circle12.json"
    dump_json(complex_to_dict(circle_complex(12)[0]), mesh)
    out = tmp_path / "g.json"
    assert main(["build", "--in", str(mesh), "--field", spec, "--out", str(out)]) == 2
    assert f"field expression {spec!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_smooth_interleaving_report(tmp_path):
    mesh = _write_circle(tmp_path)
    mu = tmp_path / "mu.csv"
    rows = [f"{float(np.cos(t))!r},{float(np.sin(t))!r},1.0" for t in np.linspace(0, 6.28, 20)]
    mu.write_text("\n".join(rows) + "\n")
    out = tmp_path / "s.json"
    rc = main(
        ["smooth", "--in", str(mesh), "--eps", "0.3", "--dtm", "0.2",
         "--measure", str(mu), "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["interleaving"]["function_preservation"]["passed"]
    assert payload["interleaving"]["commutativity"]["passed"]


def test_cli_smooth_resolves_each_factor_once(tmp_path, monkeypatch):
    mesh = _write_circle(tmp_path)
    mu = tmp_path / "mu.csv"
    mu.write_text("1.0,0.0,1.0\n0.0,1.0,2.0\n-1.0,0.0,1.0\n")
    calls = []
    resolve = SmoothingFactor.resolve

    def counted(self, X, measure=None):
        calls.append(self.kind)
        return resolve(self, X, measure)

    monkeypatch.setattr(SmoothingFactor, "resolve", counted)
    out = tmp_path / "s.json"
    argv = ["smooth", "--in", str(mesh), "--dtm", "0.2", "--kernel", "0.4",
            "--measure", str(mu), "--out", str(out)]
    assert main(argv) == 0
    assert calls == ["dtm", "kernel"]
    assert json.loads(out.read_text())["interleaving"]["commutativity"]["passed"]


def test_cli_smooth_needs_factor(tmp_path, capsys):
    mesh = _write_circle(tmp_path)
    assert main(["smooth", "--in", str(mesh)]) == 3


def test_cli_range_graph_in_unit_interval(tmp_path):
    mesh = _write_circle(tmp_path)
    mu = tmp_path / "mu1d.csv"
    mu.write_text("-1.5,1\n0.0,1\n1.5,1\n")
    out = tmp_path / "r.json"
    assert main(["range", "--in", str(mesh), "--measure", str(mu), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    vals = [n["value"] for n in payload["graph"]["nodes"]]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert payload["cdf"]["lipschitz_bound"] > 0


def test_cli_stability_runs_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 3\nmeshes = [\"circle\"]\n")
    rc = main(
        ["stability", "--mode", "kernel", "--trials", "99", "--seed", "2",
         "--config", str(cfg), "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["trials"]) == 3  # config file overrides the flag
    assert report["all_pass"]


def test_cli_config_json_form(tmp_path):
    out = tmp_path / "report.json"
    cfg = tmp_path / "exp.json"
    cfg.write_text('{"trials": 2, "meshes": ["circle"], "seed": 9}')
    rc = main(["stability", "--trials", "50", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert len(json.loads(out.read_text())["trials"]) == 2


@pytest.mark.parametrize(
    "line",
    [
        # proxy_factor and tolerance are constants now: unknown keys
        "proxy_factor = 0",
        "proxy_factor = -1",
        "proxy_factor = Infinity",
        "jitter = -0.1",
        "jitter = NaN",
        "support = 3.5",
        "trials = 2.5",
        "trials = true",
        "seed = 2.5",
        "seed = -1",
        'mass = "half"',
        "tolerance = Infinity",
        "tolerance = -1",
        "threads = abc",
        "threads = 2.5",
        "threads = -3",
        "threads = true",
        "meshes = []",
        "meshes = [3.5]",
        'meshes = "circle"',
        'bump_amplitude = "x"',
        "bump_amplitude = -0.1",
        "bump_amplitude = NaN",
        'bandwidth = "abc"',
        "bandwidth = -2",
        "bandwidth = 0",
        "bandwidth = Infinity",
    ],
)
def test_cli_stability_rejects_invalid_config_values(tmp_path, capsys, line):
    out = tmp_path / "report.json"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"trials = 1\nmeshes = [\"circle\"]\n{line}\n")
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    key = line.split("=")[0].strip()
    removed = key in ("proxy_factor", "tolerance")
    assert ("unknown config keys" if removed else key) in capsys.readouterr().err


def test_cli_stability_exits_4_on_violations(tmp_path, capsys, monkeypatch):
    import reebsmooth.experiments as experiments

    monkeypatch.setattr(experiments, "interleaving_lower_bound", lambda g1, g2: 1e9)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 2\nmeshes = [\"circle\"]\n")
    out = tmp_path / "report.json"
    assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["violations"] == [0, 1]
    assert not report["all_pass"]
    capsys.readouterr()
    assert main(["stability", "--config", str(cfg)]) == 4
    assert json.loads(capsys.readouterr().out) == report


def test_stability_rereads_a_mesh_file_on_every_run(tmp_path):
    from reebsmooth.fileio import complex_to_dict, dump_json
    from reebsmooth.meshes import circle_complex

    def run(path, n):
        if n is not None:
            dump_json(complex_to_dict(*circle_complex(n)), path)
        trials = run_stability(small_config(trials=2, meshes=(str(path),)))["trials"]
        return [(t["lower_bound"], t["upper_bound"]) for t in trials]

    first = run(tmp_path / "mesh.json", 12)
    rewritten = run(tmp_path / "mesh.json", 20)
    assert rewritten == run(tmp_path / "fresh.json", 20)
    assert rewritten != first


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--in", "mesh.json", "--config", "exp.cfg"],
        ["smooth", "--in", "mesh.json", "--config", "exp.cfg"],
        ["range", "--in", "mesh.json", "--config", "exp.cfg"],
        ["fig4", "--config", "exp.cfg"],
        ["stability", "--threads", "2"],
        ["smooth", "--rmin", "1e-6", "--in", "mesh.json", "--eps", "0.3"],
    ],
)
def test_cli_removed_flags_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_fig4_report_and_dot(tmp_path):
    out = tmp_path / "fig4.json"
    rc = main(["fig4", "--scales", "0.5,2.25", "--out", str(out), "--dot", str(tmp_path / "f4")])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["version"] == 1
    assert report["crossover_scales"] == [2.25]
    # the DOT files are the fixture's graphs at the crossover scale
    X, f, mu = load_fig4_fixture()
    factors = {
        "dtm": SmoothingFactor("dtm", FIG4_DEFAULTS["mass"], scale=2.25),
        "kernel": SmoothingFactor(
            "kernel", FIG4_DEFAULTS["bandwidth"], scale=2.25 * FIG4_DEFAULTS["kernel_scale_base"]
        ),
    }
    for kind, factor in factors.items():
        expected = to_dot(smooth_local(X, f, factor, mu))
        assert (tmp_path / f"f4.{kind}.dot").read_text() == expected


@pytest.mark.parametrize("scales", ["", ",", "0.5,x"])
def test_cli_fig4_rejects_bad_scale_lists(scales, capsys):
    assert main(["fig4", "--scales", scales]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad --scales list" in captured.err


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line for line in text.splitlines() if line.startswith("reebsmooth ")]


def test_readme_cli_lines_parse():
    # a flag removed from the parser cannot stay documented
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def _project_scripts():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one flat table by hand
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, value = (part.strip().strip('"') for part in line.split("=", 1))
                scripts[key] = value
        return scripts
    return tomllib.loads(text)["project"]["scripts"]


def test_cli_entry_point_installed(tmp_path):
    # the installed script's target, then the same front end run uninstalled
    target = _project_scripts()["reebsmooth"]
    assert target == "reebsmooth.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    src = str(Path(reebsmooth.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "reebsmooth", "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for command in ("build", "smooth", "range", "stability", "fig4"):
        assert command in proc.stdout


