"""Parsers and serializers: OFF meshes, weighted point CSVs, field files,
config files, JSON, DOT.

Parse errors carry the offending line number.  `write_text` is the one file
writer and `dump_json` the one JSON writer; it emits sorted keys so outputs
are byte-stable.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .complexes import ScalarField, SimplicialComplex, as_scalar_field
from .errors import ParseError, ValidationError
from .measures import EmpiricalMeasure


def _decode(data):
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _read(path):
    """The bytes of a file; an OSError becomes a ParseError naming the path.

    The message is the OSError's strerror, since str(exc) names the path too.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=str(path)) from None


def write_text(text, path):
    """Write text to path; an OSError becomes a ParseError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=str(path)) from None


def _content_lines(text):
    """(line_number, payload) pairs with comments and blanks dropped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [(n, line) for n, line in enumerate(map(str.strip, lines), 1) if line]


class _Fault(Exception):
    """The fault of a content row; `_read_rows` adds its line."""


def _numbers(fields, dtype, width, ragged, bad):
    """Rows of `width` fields each as a (rows, width) array of dtype.

    The fields are converted in one pass over the flat sequence of them.
    numpy parses a field as float() or int() would; an integer beyond int64
    is `bad` too.
    """
    if set(map(len, fields)) - {width}:
        raise _Fault(ragged)
    try:
        return np.array(list(chain.from_iterable(fields)), dtype=dtype).reshape(len(fields), width)
    except (ValueError, OverflowError):
        raise _Fault(bad) from None


def _read_rows(rows, path, read, *args):
    """read([fields, ...], *args) of (line_number, fields) rows.

    read checks all rows at once and raises a _Fault when any row is faulty;
    the rows are then read one by one, so the ParseError names the first
    faulty line and that line's first fault.  Each fault must be one row's
    own, found again when that row is read alone.
    """
    try:
        return read([fields for _, fields in rows], *args)
    except _Fault:
        for n, fields in rows:
            try:
                read([fields], *args)
            except _Fault as exc:
                raise ParseError(str(exc), path=path, line=n) from None
        raise


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
        nv, nf, _ = (int(p) for p in parts)
    except ValueError:
        raise ParseError("counts must be integers", path=path, line=n) from None
    if nv <= 0:
        raise ParseError("vertex count must be positive", path=path, line=n)
    if nf < 0:
        raise ParseError("face count must not be negative", path=path, line=n)
    rows = [(n, line.split()) for n, line in lines[2:]]
    if len(rows) < nv + nf:
        raise ParseError(
            f"expected {nv} vertex and {nf} face lines, found {len(rows)}",
            path=path,
            line=lines[-1][0],
        )
    width = len(rows[0][1])
    if width > 3:
        raise ParseError("vertices need 1 to 3 coordinates", path=path, line=rows[0][0])
    vertex_faults = ("inconsistent vertex width", "bad vertex coordinate")
    coords = _read_rows(rows[:nv], path, _numbers, np.float64, width, *vertex_faults)

    def faces(fields):
        if not fields:
            return {}
        # rows of exactly "k i_1 ... i_k" for one k are read in one conversion
        width = len(fields[0])
        try:
            table = _numbers(fields, np.int64, width, None, None)
        except _Fault:
            table = None
        if table is not None and np.all(table[:, 0] == width - 1):
            k, groups = table[:, 0], {width - 1: table[:, 1:]}
        else:
            heads = [p[:1] for p in fields]
            k = _numbers(heads, np.int64, 1, None, "face line needs a leading count")[:, 0]
            groups = None
        unsupported = k[(k < 2) | (k > 4)]
        if len(unsupported):
            raise _Fault(f"face size {unsupported[0]} unsupported (2, 3, or 4)")
        if groups is None:
            sizes, k, groups = np.unique(k).tolist(), k.tolist(), {}
            for size in sizes:
                group = [p[1 : 1 + size] for p, s in zip(fields, k) if s == size]
                promise = f"face line promises {size} indices"
                groups[size] = _numbers(group, np.int64, size, promise, "bad face index")
        for idx in groups.values():
            if np.any((idx < 0) | (idx >= nv)):
                raise _Fault("face index out of range")
            if np.any(np.diff(np.sort(idx), axis=1) == 0):
                raise _Fault("face repeats a vertex")
        return {size - 1: idx for size, idx in groups.items()}

    simplices = _read_rows(rows[nv : nv + nf], path, faces)
    return SimplicialComplex.build(np.arange(nv), coords, simplices)


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
    rows = [(n, line.split(",")) for n, line in _content_lines(_decode(data))]
    if not rows:
        raise ParseError("no data rows", path=path, line=1)
    width = len(rows[0][1])
    if width < 2 or width > 4:
        raise ParseError("rows need 1 to 3 coordinates plus a weight", path=path, line=rows[0][0])

    def read(fields):
        table = _numbers(fields, np.float64, width, "ragged row", "bad number")
        if not np.all(np.isfinite(table)):
            raise _Fault("values must be finite")
        if np.any(table[:, -1] < 0):
            raise _Fault("negative weight")
        return table

    table = _read_rows(rows, path, read)
    total = float(np.sum(table[:, -1]))
    if total <= 0:
        raise ParseError("total weight must be positive", path=path, line=rows[-1][0])
    return EmpiricalMeasure(table[:, :-1], table[:, -1] / total)


def load_weighted_points(path):
    return parse_weighted_points(_read(path), path=str(path))


def load_field_csv(path):
    """One field value per content line of a text file, as a float array."""
    rows = [(n, [line]) for n, line in _content_lines(_decode(_read(path)))]
    return _read_rows(rows, path, _numbers, np.float64, 1, None, "bad field value")[:, 0]


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


def _json_ints(values, what, path):
    """ParseError unless every value is a JSON integer (true and 1.0 are not)."""
    for v in values:
        if type(v) is not int:
            raise ParseError(f"bad complex JSON: {what} {json.dumps(v)} is not an integer", path=path)


def complex_from_dict(data, path=None):
    try:
        ids = [v["id"] for v in data["vertices"]]
        _json_ints(ids, "vertex id", path)
        coords = [v["coords"] for v in data["vertices"]]
        by_dim = data.get("simplices", {})
        if not isinstance(by_dim, dict):
            raise ParseError("simplices must be an object keyed by dimension", path=path)
        # keys naming one dimension ("1", "01") pool their rows
        simplices = {}
        for key, rows in by_dim.items():
            d = int(key)
            for row in rows:
                if d < 0 or len(row) != d + 1:
                    raise ParseError(
                        f"simplices[{key!r}] has a row of {len(row)} vertices, "
                        f"not a {d}-simplex",
                        path=path,
                    )
            _json_ints([v for row in rows for v in row], f"simplices[{key!r}] entry", path)
            simplices.setdefault(d, []).extend(rows)
        try:
            X = SimplicialComplex.build(ids, coords, simplices)
        except ValidationError as exc:
            raise ParseError(f"bad complex JSON: {exc}", path=path) from None
        field = None
        if "field" in data:
            field = ScalarField(data["field"])
            if len(field.values) != X.n_vertices:
                raise ParseError("field length does not match vertex count", path=path)
        return X, field
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex JSON: {exc}", path=path) from None


def field_from_dict(data, path=None):
    try:
        return ScalarField(data["vertex_values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad field JSON: {exc}", path=path) from None


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


def dump_json(obj, path=None):
    """obj as sorted, indented JSON and a newline: to the file at path, or to
    stdout when path is None or empty."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    write_text(text, path)


# -- DOT -------------------------------------------------------------------------


def to_dot(graph):
    """Graphviz DOT text of the digraph "reeb"; nodes at equal values share a rank."""
    lines = ["digraph reeb {", "  rankdir=BT;"]
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
