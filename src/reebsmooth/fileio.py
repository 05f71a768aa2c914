"""Parsers and serializers: OFF meshes, weighted point CSVs, field files,
config files, JSON, DOT.

Parse errors carry the offending line number.  All JSON writers emit sorted
keys so outputs are byte-stable.
"""

from __future__ import annotations

import json

import numpy as np

from .complexes import ScalarField, SimplicialComplex, as_scalar_field
from .errors import ParseError
from .measures import EmpiricalMeasure
from .reeb import ReebGraph


def _decode(data):
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _read(path):
    """The bytes of a file; an OSError becomes a ParseError naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from None


def _content_lines(text):
    """(line_number, payload) pairs with comments and blanks dropped."""
    out = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((n, line))
    return out


def parse_off(data, path=None):
    """OFF mesh reader. Face rows of 2, 3, or 4 indices give edges,
    triangles, or tetrahedra; extra trailing fields (colors) are ignored.
    """
    lines = _content_lines(_decode(data))
    if not lines:
        raise ParseError("empty OFF input", path=path, line=1)
    n, header = lines[0]
    if header != "OFF":
        raise ParseError(f"expected 'OFF' header, got {header!r}", path=path, line=n)
    if len(lines) < 2:
        raise ParseError("missing counts line", path=path, line=n)
    n, counts = lines[1]
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError("counts line needs 'nv nf ne'", path=path, line=n)
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("counts must be integers", path=path, line=n) from None
    if nv <= 0 or nf < 0:
        raise ParseError("vertex count must be positive", path=path, line=n)
    rows = lines[2:]
    if len(rows) < nv + nf:
        raise ParseError(
            f"expected {nv} vertex and {nf} face lines, found {len(rows)}",
            path=path,
            line=lines[-1][0],
        )
    coords = []
    width = None
    for n, line in rows[:nv]:
        parts = line.split()
        if width is None:
            width = len(parts)
            if width < 1 or width > 3:
                raise ParseError("vertices need 1 to 3 coordinates", path=path, line=n)
        if len(parts) != width:
            raise ParseError("inconsistent vertex width", path=path, line=n)
        try:
            coords.append([float(p) for p in parts])
        except ValueError:
            raise ParseError("bad vertex coordinate", path=path, line=n) from None
    simplices = []
    for n, line in rows[nv : nv + nf]:
        parts = line.split()
        try:
            k = int(parts[0])
        except (ValueError, IndexError):
            raise ParseError("face line needs a leading count", path=path, line=n) from None
        if k < 2 or k > 4:
            raise ParseError(f"face size {k} unsupported (2, 3, or 4)", path=path, line=n)
        if len(parts) < 1 + k:
            raise ParseError(f"face line promises {k} indices", path=path, line=n)
        try:
            idx = [int(p) for p in parts[1 : 1 + k]]
        except ValueError:
            raise ParseError("bad face index", path=path, line=n) from None
        if any(i < 0 or i >= nv for i in idx):
            raise ParseError("face index out of range", path=path, line=n)
        if len(set(idx)) != k:
            raise ParseError("face repeats a vertex", path=path, line=n)
        simplices.append(tuple(idx))
    verts = [(i, coords[i]) for i in range(nv)]
    return SimplicialComplex.build(verts, simplices)


def load_off(path):
    return parse_off(_read(path), path=str(path))


def load_mesh(path):
    """A mesh file as (complex, embedded field or None).

    A path ending in ".off" is an OFF mesh, which carries no field; any other
    is a complex JSON (`complex_from_dict`).
    """
    if str(path).endswith(".off"):
        return load_off(path), None
    return complex_from_dict(load_json(path), path=str(path))


def parse_weighted_points(data, path=None):
    """CSV rows 'x[,y[,z]],weight' -> normalized EmpiricalMeasure.

    Weights must be nonnegative with positive total; zero-weight points are
    retained with mass 0.
    """
    lines = _content_lines(_decode(data))
    pts = []
    weights = []
    width = None
    for n, line in lines:
        parts = [p.strip() for p in line.split(",")]
        if width is None:
            width = len(parts)
            if width < 2 or width > 4:
                raise ParseError(
                    "rows need 1 to 3 coordinates plus a weight", path=path, line=n
                )
        if len(parts) != width:
            raise ParseError("ragged row", path=path, line=n)
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ParseError("bad number", path=path, line=n) from None
        if not all(np.isfinite(nums)):
            raise ParseError("values must be finite", path=path, line=n)
        if nums[-1] < 0:
            raise ParseError("negative weight", path=path, line=n)
        pts.append(nums[:-1])
        weights.append(nums[-1])
    if not pts:
        raise ParseError("no data rows", path=path, line=1)
    total = float(np.sum(weights))
    if total <= 0:
        raise ParseError("total weight must be positive", path=path, line=lines[-1][0])
    return EmpiricalMeasure(np.asarray(pts), np.asarray(weights) / total)


def load_weighted_points(path):
    return parse_weighted_points(_read(path), path=str(path))


def load_field_csv(path):
    """One field value per content line of a text file, as a float array."""
    vals = []
    for n, line in _content_lines(_decode(_read(path))):
        try:
            vals.append(float(line))
        except ValueError:
            raise ParseError("bad field value", path=path, line=n) from None
    return np.asarray(vals, dtype=np.float64)


# -- JSON schemas ----------------------------------------------------------------


def complex_to_dict(X, field=None):
    out = {
        "vertices": [
            {"id": int(i), "coords": [float(c) for c in X.coords[k]]}
            for k, i in enumerate(X.vertex_ids)
        ],
        "simplices": {
            str(d): [[int(X.vertex_ids[v]) for v in row] for row in rows]
            for d, rows in sorted(X.simplices.items())
        },
    }
    if field is not None:
        out["field"] = [float(v) for v in as_scalar_field(field).values]
    return out


def complex_from_dict(data, path=None):
    try:
        verts = [(int(v["id"]), v["coords"]) for v in data["vertices"]]
        by_dim = data.get("simplices", {})
        if not isinstance(by_dim, dict):
            raise ParseError("simplices must be an object keyed by dimension", path=path)
        simplices = []
        for key, rows in by_dim.items():
            d = int(key)
            for row in rows:
                if d < 0 or len(row) != d + 1:
                    raise ParseError(
                        f"simplices[{key!r}] has a row of {len(row)} vertices, "
                        f"not a {d}-simplex",
                        path=path,
                    )
                simplices.append(row)
        X = SimplicialComplex.build(verts, simplices)
        field = None
        if "field" in data:
            field = ScalarField(data["field"])
            if len(field.values) != X.n_vertices:
                raise ParseError("field length does not match vertex count", path=path)
        return X, field
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex JSON: {exc}", path=path) from None


def field_to_dict(field):
    return {"vertex_values": [float(v) for v in as_scalar_field(field).values]}


def field_from_dict(data, path=None):
    try:
        return ScalarField(data["vertex_values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad field JSON: {exc}", path=path) from None


def reeb_from_dict(data, path=None):
    try:
        return ReebGraph.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad Reeb graph JSON: {exc}", path=path) from None


def _parse_json(text, path):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=exc.lineno) from None


def load_json(path):
    return _parse_json(_decode(_read(path)), path)


def load_config(path):
    """A settings file as a dict: a JSON object, or "key = value" lines.

    In the line form '#' starts a comment, "key: value" also works, and each
    value is read as JSON when it parses as JSON and kept as text otherwise.
    """
    text = _decode(_read(path))
    if text.lstrip().startswith("{"):
        return _parse_json(text, path)
    out = {}
    for n, line in _content_lines(text):
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ParseError("config lines look like 'key = value'", path=str(path), line=n)
        val = val.strip()
        try:
            out[key.strip()] = json.loads(val)
        except json.JSONDecodeError:
            out[key.strip()] = val
    return out


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- DOT -------------------------------------------------------------------------


def to_dot(graph, name="reeb"):
    """Graphviz DOT text; nodes at equal values share a rank."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(graph.n_nodes):
        lines.append(f'  n{i} [label="{i}\\n{graph.node_values[i]:.6g}"];')
    by_value = {}
    for i, v in enumerate(graph.node_values):
        by_value.setdefault(float(v), []).append(i)
    for v in sorted(by_value):
        if len(by_value[v]) > 1:
            members = "; ".join(f"n{i}" for i in by_value[v])
            lines.append(f"  {{ rank=same; {members}; }}")
    for a, b in graph.edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
