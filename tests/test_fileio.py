"""Parsers, serializers, and their error reporting."""

import json
import re

import numpy as np
import pytest

from reebsmooth.cli import main
from reebsmooth.complexes import SimplicialComplex
from reebsmooth.errors import ParseError
from reebsmooth.fileio import (
    complex_from_dict,
    complex_to_dict,
    dump_json,
    field_from_dict,
    load_field_csv,
    load_json,
    parse_off,
    parse_weighted_points,
    to_dot,
)
from reebsmooth.meshes import circle_complex, torus_mesh
from reebsmooth.reeb import ReebGraph, is_isomorphic, reeb_graph

from oracles import OffFault, off_oracle

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
        ("NOT_OFF\n1 0 0\n0 0 0\n", "line 1: expected 'OFF' header, got 'NOT_OFF'"),
        ("OFF\n2 1\n0 0\n1 1\n", "line 2: counts line needs 'nv nf ne'"),
        ("OFF\n2 1 0\n0 zero\n1 1\n2 0 1\n", "line 3: bad vertex coordinate"),
        ("OFF\n2 1 0\n0 0\n1 1\n2 0 5\n", "line 5: face index out of range"),
        ("OFF\n2 1 0\n0 0\n1 1\n2 0 0\n", "line 5: face repeats a vertex"),
        ("OFF\n2 1 0\n0 0\n1 1\n5 0 1 1 0 1\n", "line 5: face size 5 unsupported (2, 3, or 4)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_off(text)
        assert str(err.value) == message


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


# -- the numeric readers: every fault, its exact message and line ---------------

# three 2-d vertices; face rows start at line 6
TRI = "OFF\n3 {} 0\n0 0\n1 0\n0 1\n"


def _faces(*rows):
    return TRI.format(len(rows)) + "".join(row + "\n" for row in rows)


OFF_FAULTS = [
    ("", 1, "empty OFF input"),
    ("# only a comment\n\n", 1, "empty OFF input"),
    ("NOT_OFF\n1 0 0\n0 0 0\n", 1, "expected 'OFF' header, got 'NOT_OFF'"),
    ("OFF\n", 1, "missing counts line"),
    ("OFF\n2 1\n0 0\n1 1\n", 2, "counts line needs 'nv nf ne'"),
    ("OFF\n2 x 0\n0 0\n1 1\n", 2, "counts must be integers"),
    ("OFF\n2.0 1 0\n0 0\n1 1\n", 2, "counts must be integers"),
    ("OFF\n2 1 banana\n0 0\n1 0\n2 0 1\n", 2, "counts must be integers"),
    ("OFF\n0 0 0\n", 2, "vertex count must be positive"),
    ("OFF\n0 -1 0\n", 2, "vertex count must be positive"),
    ("OFF\n2 -1 0\n0 0\n1 1\n", 2, "face count must not be negative"),
    ("OFF\n2 1 0\n0 0\n1 1\n", 4, "expected 2 vertex and 1 face lines, found 2"),
    ("OFF\n1 0 0\n0 0 0 0\n", 3, "vertices need 1 to 3 coordinates"),
    ("OFF\n1 0 0\n0 0 0 x\n", 3, "vertices need 1 to 3 coordinates"),
    ("OFF\n2 0 0\n0 0\n1\n", 4, "inconsistent vertex width"),
    ("OFF\n2 1 0\n0 zero\n1 1\n2 0 1\n", 3, "bad vertex coordinate"),
    ("OFF\n2 0 0\n0 0\n1 0x10\n", 4, "bad vertex coordinate"),
    # the first faulty line wins, whatever its fault
    ("OFF\n3 0 0\n0 0\n1 x\n1\n", 4, "bad vertex coordinate"),
    ("OFF\n3 0 0\n0 0\n1\n1 x\n", 4, "inconsistent vertex width"),
    ("OFF\n2 1 0\n# c\n\n0 0\n1 y\n2 0 0\n", 6, "bad vertex coordinate"),
    (_faces("x 0 1"), 6, "face line needs a leading count"),
    (_faces("2.0 0 1"), 6, "face line needs a leading count"),
    (_faces("5 0 1 2 0 1"), 6, "face size 5 unsupported (2, 3, or 4)"),
    (_faces("1 0"), 6, "face size 1 unsupported (2, 3, or 4)"),
    (_faces("3 0 1"), 6, "face line promises 3 indices"),
    (_faces("4 0 1 2"), 6, "face line promises 4 indices"),
    (_faces("2 0 1.0"), 6, "bad face index"),
    (_faces("2 0 0x1"), 6, "bad face index"),
    (_faces("2 0 3"), 6, "face index out of range"),
    (_faces("2 -1 0"), 6, "face index out of range"),
    (_faces("2 1 1"), 6, "face repeats a vertex"),
    (_faces("3 0 2 0"), 6, "face repeats a vertex"),
    # within a line: size, then count of indices, then parse, range, repeats
    (_faces("3 0 x"), 6, "face line promises 3 indices"),
    (_faces("2 x 9"), 6, "bad face index"),
    (_faces("2 9 9"), 6, "face index out of range"),
    # across lines and face sizes, the first faulty line wins
    (_faces("3 0 1 2", "2 0 0", "7 0 1"), 7, "face repeats a vertex"),
    (_faces("2 0 1", "3 0 1 9", "2 x 1"), 7, "face index out of range"),
    (_faces("2 0 x", "5 0 1 2 0 1"), 6, "bad face index"),
    (_faces("3 0 1 2", "9 0 1", "2 x 0"), 7, "face size 9 unsupported (2, 3, or 4)"),
    (_faces("2 0 1", "x", "3 0 0 1"), 7, "face line needs a leading count"),
    (_faces("4 0 1 2 0", "3 0 1 2", "2 0 2", "3 0 1 x"), 6, "face repeats a vertex"),
    (_faces("2 0 1", "3 0 1 2", "3 2 1 1"), 8, "face repeats a vertex"),
]


@pytest.mark.parametrize("text, line, message", OFF_FAULTS)
def test_parse_off_faults_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_off(text, path="m.off")
    assert str(err.value) == f"m.off:{line}: {message}"
    assert err.value.line == line


_COORD_FORMATS = (repr, "{:.4g}".format, "{:.17g}".format, "{:e}".format, lambda c: str(round(c)))
_COLORS = (" 255 0 0", " 0.5 0.25 1 1", " 7", "")


def _off_text(rng):
    """A seeded OFF text and its line break: comments, blank lines, tabs, LF or
    CRLF, color fields, faces of one size or of mixed sizes, and now and then
    one line broken in a way that may or may not be a fault."""
    nv = int(rng.integers(4, 14))
    width = int(rng.integers(1, 4))
    scale = 10.0 ** rng.integers(-3, 4, size=(nv, width))
    vertex_rows = [
        [_COORD_FORMATS[rng.integers(len(_COORD_FORMATS))](c) for c in row]
        for row in rng.normal(size=(nv, width)) * scale
    ]
    sizes = ((3,), (2,), (4,), (2, 3), (2, 3, 4))[rng.integers(5)]
    colors = _COLORS[: rng.integers(1, len(_COLORS) + 1)]
    face_rows = []
    for _ in range(int(rng.integers(0, 3 * nv))):
        k = int(rng.choice(sizes))
        face = [str(v) for v in rng.choice(nv, size=k, replace=False)]
        color = colors[rng.integers(len(colors))].split()
        face_rows.append([str(k), *face, *color])
    rows = vertex_rows + face_rows
    if rng.random() < 0.5:
        row = rows[rng.integers(len(rows))]
        fault = rng.integers(5)
        if fault == 0:
            row[rng.integers(len(row))] = "x"
        elif fault == 1 and len(row) > 1:
            row.pop()
        elif fault == 2:
            row.append("1")
        elif fault == 3 and row in face_rows:
            row[1 + rng.integers(len(row) - 1)] = str(nv + int(rng.integers(2)))
        elif row in face_rows:
            row[0] = ("5", "1", "2.0", "3")[rng.integers(4)]
    lines = ["OFF" + (" # header" if rng.random() < 0.3 else ""), f"{nv} {len(face_rows)} 0"]
    if rng.random() < 0.3:
        lines.insert(0, "# leading comment")
    for row in rows:
        pad = ("", " ", "\t", "  ")
        line = pad[rng.integers(4)] + " ".join(row) + pad[rng.integers(4)]
        if rng.random() < 0.2:
            line += "# trailing " + str(rng.integers(9))
        lines.append(line)
        if rng.random() < 0.15:
            lines.append(("", "   ", "# a comment line", "\t#")[rng.integers(4)])
    if rng.random() < 0.2:
        lines.append("9 9 9  # a line past the faces")
    end = "\r\n" if rng.random() < 0.5 else "\n"
    return end.join(lines) + (end if rng.random() < 0.7 else "")


def test_parse_off_matches_a_line_by_line_reader():
    # the one-conversion fast paths give the oracle's complex, or fail on the
    # oracle's first faulty line
    rng = np.random.default_rng(2024)
    outcomes = set()
    for case in range(400):
        text = _off_text(rng)
        data = text.encode() if case % 2 else text
        try:
            coords, simplices = off_oracle(text)
        except OffFault as fault:
            with pytest.raises(ParseError) as err:
                parse_off(data, path="m.off")
            assert err.value.line == fault.line, text
            outcomes.add("fault")
            continue
        X = parse_off(data)
        assert X.vertex_ids.tolist() == list(range(len(coords)))
        assert X.coords.tobytes() == np.array(coords, dtype=np.float64).tobytes(), text
        assert {d: [tuple(r) for r in rows.tolist()] for d, rows in X.simplices.items()} == simplices
        outcomes.add(max(simplices, default=0))
    assert outcomes == {"fault", 0, 1, 2, 3}


POINTS_FAULTS = [
    ("", 1, "no data rows"),
    ("# c\n\n", 1, "no data rows"),
    ("0\n", 1, "rows need 1 to 3 coordinates plus a weight"),
    ("0,0,0,0,1\n", 1, "rows need 1 to 3 coordinates plus a weight"),
    ("0,0\n1\n", 2, "ragged row"),
    ("0,1\n1,1,1\n", 2, "ragged row"),
    ("a,1\n", 1, "bad number"),
    ("1,,2\n", 1, "bad number"),
    ("0x10,1\n", 1, "bad number"),
    ("0,nan\n", 1, "values must be finite"),
    ("inf,1\n", 1, "values must be finite"),
    ("1e400,1\n", 1, "values must be finite"),
    ("0,-1\n", 1, "negative weight"),
    ("0,0\n1,0\n", 2, "total weight must be positive"),
    ("0,0\n1,0\n# tail\n", 2, "total weight must be positive"),
    # the first faulty line wins, and within a line the order above
    ("0,1\n1,-1\n2\n", 2, "negative weight"),
    ("0,1\n1\n2,nan\n", 2, "ragged row"),
    ("0,1\n1,x\n2,-1\n", 2, "bad number"),
    ("0,1\n1,nan\n2,x\n", 2, "values must be finite"),
    ("0,1\n1,x,3\n", 2, "ragged row"),
    ("nan,-1\n", 1, "values must be finite"),
    ("0,-1\n1,nan\n", 1, "negative weight"),
    ("# head\n\n0,1\n1,x\n", 4, "bad number"),
]


@pytest.mark.parametrize("text, line, message", POINTS_FAULTS)
def test_parse_weighted_points_faults_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_weighted_points(text, path="w.csv")
    assert str(err.value) == f"w.csv:{line}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, line",
    [("x\n", 1), ("1\n2 3\n", 2), ("1\n1,2\n", 2), ("# c\n1\n\n0x10\n", 4), ("1\n1.5.\n", 2)],
)
def test_load_field_csv_faults_name_their_line(tmp_path, text, line):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_field_csv(str(path))
    assert str(err.value) == f"{path}:{line}: bad field value"
    assert err.value.line == line


# tokens that Python's float() and int() accept and that are easy to get wrong;
# the tables above hold the rejected ones ("0x10" as a float, "1.0" as an int)
FLOAT_TOKENS = ["1_0", "+.5", "infinity", "-Infinity", "nan", "\u0661", "1e400", "-0", " 7 ", "1.5e-320"]
INT_TOKENS = ["1_0", "+3", "\u0661", "\u0661\u0662", "-0", "007"]


def test_float_tokens_parse_as_float_does(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("\n".join(FLOAT_TOKENS) + "\n", encoding="utf-8")
    got = load_field_csv(str(path))
    want = np.array([float(t) for t in FLOAT_TOKENS])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    mu = parse_weighted_points("".join(f"{t},1\n" for t in ["1_0", "+.5", "\u0661", "-0"]))
    assert mu.points[:, 0].tolist() == [10.0, 0.5, 1.0, -0.0]


def test_int_tokens_parse_as_int_does():
    # each token names one end of an edge to vertex 13
    text = f"OFF\n14 {len(INT_TOKENS)} 0\n" + "".join(f"{i}\n" for i in range(14))
    text += "".join(f"2 {t} 13\n" for t in INT_TOKENS)
    edges = {tuple(e) for e in parse_off(text).simplices[1].tolist()}
    assert edges == {(int(t), 13) for t in INT_TOKENS}


def test_integers_beyond_int64_are_bad_fields():
    # int() reads them, but no face size or vertex index is that large
    huge = "99999999999999999999"
    with pytest.raises(ParseError, match="line 6: bad face index"):
        parse_off(_faces(f"2 0 {huge}"))
    with pytest.raises(ParseError, match="line 6: face line needs a leading count"):
        parse_off(_faces(f"{huge} 0 1"))


def test_float_parsing_is_bit_identical_to_float(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(4000) * 10.0 ** rng.integers(-310, 308, 4000)
    tokens = [f"{v:.17g}" for v in values] + [f"{v:.6g}" for v in values[:500]]
    want = np.array([float(t) for t in tokens])
    path = tmp_path / "f.csv"
    path.write_text("\n".join(tokens) + "\n")
    got = load_field_csv(str(path))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    text = f"OFF\n{len(tokens) // 2} 0 0\n" + "".join(
        f"{a} {b}\n" for a, b in zip(tokens[0::2], tokens[1::2])
    )
    coords = parse_off(text).coords
    assert np.array_equal(coords.ravel().view(np.uint64), want[: 2 * len(coords)].view(np.uint64))


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
        np.arange(6),
        [[float(i), float(i % 2), float(i % 3)] for i in range(6)],
        {3: [(0, 1, 2, 3), (1, 2, 3, 4)], 1: [(4, 5)]},
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


@pytest.mark.parametrize(
    "vertex_id, edge, message",
    [
        (1.7, [0, 1.2], "vertex id 1.7 is not an integer"),
        (1, [0, 1.2], "simplices['1'] entry 1.2 is not an integer"),
        (True, [0, 1], "vertex id true is not an integer"),
        (1, [0, True], "simplices['1'] entry true is not an integer"),
        (1.0, [0, 1], "vertex id 1.0 is not an integer"),
        ("1", [0, 1], 'vertex id "1" is not an integer'),
    ],
    ids=["float id", "float entry", "bool id", "bool entry", "integral float id", "string id"],
)
def test_complex_json_ids_and_entries_must_be_integers(tmp_path, capsys, vertex_id, edge, message):
    # int() and the int64 cast would truncate 1.7 to 1 and read true as 1
    vertices = [{"id": 0, "coords": [0.0]}, {"id": vertex_id, "coords": [1.0]}]
    data = {"vertices": vertices, "simplices": {"1": [edge]}}
    with pytest.raises(ParseError, match=re.escape(message)):
        complex_from_dict(data)
    mesh = tmp_path / "bad.json"
    mesh.write_text(json.dumps(data))
    assert main(["build", "--in", str(mesh), "--out", str(tmp_path / "g.json")]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and message in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize(
    "vertices, simplices, message",
    [
        ([0, 1], {"1": [[0, 1], [1, 7]]}, "simplex references unknown vertex id 7"),
        ([0, 1, 0], {"1": [[0, 1]]}, "duplicate vertex ids"),
        ([], {}, "complex needs at least one vertex"),
        ([0, 2**63], {}, "vertex ids must fit in 64 bits"),
        ([0, 1, 2], {"1": [[0, 2**63]]}, "simplex references an unknown vertex id"),
        ([0, 1], {"1": [[1, 1]]}, "degenerate simplex (repeated vertex): (1, 1)"),
        ([0, 1, 2, 3, 4], {"4": [[0, 1, 2, 3, 4]]}, "simplex dimension 4 exceeds maximum 3"),
    ],
    ids=["unknown id", "duplicate id", "no vertex", "id beyond int64", "entry beyond int64",
         "repeated vertex", "dimension 4"],
)
def test_complex_json_that_build_rejects_is_a_parse_error(tmp_path, capsys, vertices, simplices, message):
    data = {"vertices": [{"id": i, "coords": [float(n)]} for n, i in enumerate(vertices)]}
    data["simplices"] = simplices
    mesh = tmp_path / "bad.json"
    mesh.write_text(json.dumps(data))
    assert main(["build", "--in", str(mesh), "--out", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr().err == f"error: {mesh}: bad complex JSON: {message}\n"
    assert not (tmp_path / "g.json").exists()


def test_complex_json_keys_naming_one_dimension_pool_their_rows():
    vertices = [{"id": i, "coords": [float(i)]} for i in range(4)]
    data = {"vertices": vertices, "simplices": {"1": [[0, 1]], "01": [[3, 2]]}}
    X, _ = complex_from_dict(data)
    assert X.simplices[1].tolist() == [[0, 1], [2, 3]]


def test_field_dict_round_trip():
    f = field_from_dict({"vertex_values": [0.5, -1.25, 3.0]})
    assert np.array_equal(f.values, [0.5, -1.25, 3.0])


def test_reeb_json_round_trip():
    X, f = circle_complex(16)
    g = reeb_graph(X, f)
    g2 = ReebGraph.from_dict(json.loads(json.dumps(g.to_dict())))
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
    g = ReebGraph(
        np.array([0.0, 0.0, 1.0]),
        np.array([0, 1, 2]),
        np.array([[0, 2], [1, 2]], dtype=np.int64),
    )
    dot = to_dot(g)
    assert "rank=same; n0; n1" in dot
