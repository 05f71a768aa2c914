"""Parsers, serializers, and their error reporting."""

import json

import numpy as np
import pytest

from reebsmooth.cli import main
from reebsmooth.complexes import ScalarField, SimplicialComplex
from reebsmooth.errors import ParseError
from reebsmooth.fileio import (
    complex_from_dict,
    complex_to_dict,
    dump_json,
    field_from_dict,
    field_to_dict,
    load_json,
    parse_off,
    parse_weighted_points,
    reeb_from_dict,
    to_dot,
)
from reebsmooth.meshes import circle_complex, torus_mesh
from reebsmooth.reeb import is_isomorphic, reeb_graph

GOOD_OFF = """OFF
# a comment
3 1 0
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
3 0 1 2
"""


def test_parse_off_minimal_triangle():
    X = parse_off(GOOD_OFF)
    assert X.n_vertices == 3
    assert X.simplices[2].shape == (1, 3)
    assert X.simplices[1].shape == (3, 2)


def test_parse_off_edges_and_trailing_fields():
    text = "OFF\n2 1 0\n0 0\n1 0\n2 0 1 255 0 0\n"  # color fields ignored
    X = parse_off(text)
    assert X.n_vertices == 2
    assert X.simplices[1].tolist() == [[0, 1]]


def test_parse_off_error_lines():
    cases = [
        ("NOT_OFF\n1 0 0\n0 0 0\n", "header"),
        ("OFF\n2 1\n0 0\n1 1\n", "counts"),
        ("OFF\n2 1 0\n0 zero\n1 1\n2 0 1\n", "coordinate"),
        ("OFF\n2 1 0\n0 0\n1 1\n2 0 5\n", "range"),
        ("OFF\n2 1 0\n0 0\n1 1\n2 0 0\n", "repeat"),
        ("OFF\n2 1 0\n0 0\n1 1\n5 0 1 1 0 1\n", "size"),
    ]
    for text, _label in cases:
        with pytest.raises(ParseError) as err:
            parse_off(text)
        assert str(err.value)  # message formats cleanly


def test_parse_off_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_off("OFF\n2 1 0\n0 0\nbad 1\n2 0 1\n", path="mesh.off")
    assert "mesh.off:4" in str(err.value)


def test_parse_weighted_points_normalizes():
    mu = parse_weighted_points("0,0,2.0\n1,0,3.0\n2,0,2.3\n")
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.points.shape == (3, 2)


def test_parse_weighted_points_1d_and_3d():
    mu1 = parse_weighted_points("0.5,1\n1.5,1\n")
    assert mu1.dim == 1
    mu3 = parse_weighted_points("0,0,0,1\n1,1,1,1\n")
    assert mu3.dim == 3


def test_parse_weighted_points_errors():
    for text in ("0,0\n1\n", "0,-1\n", "0,0\n1,0\n", "a,1\n"):
        with pytest.raises(ParseError):
            parse_weighted_points(text)


def test_parse_weighted_points_keeps_zero_weight_rows():
    mu = parse_weighted_points("0,0,0\n1,0,2\n")
    assert len(mu.weights) == 2
    assert mu.weights[0] == 0.0


def test_complex_json_round_trip(tmp_path):
    X, f = torus_mesh(6, 6)
    d = complex_to_dict(X, field=f)
    path = tmp_path / "torus.json"
    dump_json(d, path)
    X2, f2 = complex_from_dict(load_json(path))
    assert np.array_equal(X.coords, X2.coords)
    for k in X.simplices:
        assert np.array_equal(X.simplices[k], X2.simplices[k])
    assert np.array_equal(f.values, f2.values)
    assert is_isomorphic(reeb_graph(X, f), reeb_graph(X2, f2))


def test_complex_json_round_trip_with_tetrahedra():
    X = SimplicialComplex.build(
        [(i, [float(i), float(i % 2), float(i % 3)]) for i in range(6)],
        [(0, 1, 2, 3), (1, 2, 3, 4), (4, 5)],
    )
    d = json.loads(json.dumps(complex_to_dict(X)))
    assert sorted(d["simplices"]) == ["1", "2", "3"]
    X2, f2 = complex_from_dict(d)
    assert f2 is None
    assert X2.simplices.keys() == X.simplices.keys()
    for k in X.simplices:
        assert np.array_equal(X.simplices[k], X2.simplices[k])


@pytest.mark.parametrize(
    "simplices",
    [
        {"7": [[0, 1], []]},  # wrong key, and an empty row
        {"1": [[0, 1], []]},  # an empty row
        {"2": [[0, 1]]},  # an edge under the triangles
        {"1": [[0, 1, 2]]},  # a triangle under the edges
        {"0": [[]]},
        {"-1": [[]]},
        {"one": [[0, 1]]},
        [[0, 1]],  # not keyed by dimension
    ],
)
def test_complex_json_rejects_rows_not_of_their_dimension(tmp_path, capsys, simplices):
    vertices = [{"id": i, "coords": [float(i), 0.0]} for i in range(3)]
    data = {"vertices": vertices, "simplices": simplices}
    with pytest.raises(ParseError):
        complex_from_dict(data)
    mesh = tmp_path / "bad.json"
    mesh.write_text(json.dumps(data))
    assert main(["build", "--in", str(mesh), "--out", str(tmp_path / "g.json")]) == 2
    assert "bad.json" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_field_dict_round_trip():
    f = ScalarField(np.array([0.5, -1.25, 3.0]))
    f2 = field_from_dict(field_to_dict(f))
    assert np.array_equal(f.values, f2.values)


def test_reeb_json_round_trip():
    X, f = circle_complex(16)
    g = reeb_graph(X, f)
    g2 = reeb_from_dict(g.to_dict())
    assert np.array_equal(g.node_values, g2.node_values)
    assert np.array_equal(g.edges, g2.edges)


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [,]}')
    with pytest.raises(ParseError) as err:
        load_json(path)
    assert "broken.json" in str(err.value)


def test_dump_json_is_deterministic(tmp_path):
    payload = {"b": 1, "a": [3, 2], "nested": {"z": 0, "y": 1}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(payload, p1)
    dump_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith('{\n  "a"')


def test_to_dot_shape():
    X, f = circle_complex(12)
    dot = to_dot(reeb_graph(X, f))
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert dot.count("->") == 2
    assert "rank=same" not in dot  # two nodes, distinct values


def test_to_dot_ranks_tied_values():
    from reebsmooth.reeb import ReebGraph

    g = ReebGraph(
        np.array([0.0, 0.0, 1.0]),
        np.array([0, 1, 2]),
        np.array([[0, 2], [1, 2]], dtype=np.int64),
    )
    dot = to_dot(g)
    assert "rank=same; n0; n1" in dot
