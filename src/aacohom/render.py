"""Rendering of CLI reports: stable JSON, plain text, or CSV for matrices.

``emit`` turns a report dict into one string.  A ``matrix`` payload is a
``OnesRows``, which lists each row's ones (the 0/1 matrices of
``lefschetz`` and ``kneser``); it renders to the bytes of its dense rows.
"""

import json

from .errors import InvalidParameterError, Record

# A str of at most this many ASCII characters stays under pymalloc's
# 512-byte small-object limit (49 bytes of header on CPython 3.11).
ONES_CHUNK = 448


class OnesRows(Record):
    """A 0/1 matrix payload: ``ones[i]`` lists the sorted columns of row i's ones.

    ``emit`` renders it byte for byte as it would the dense rows.
    """

    width: int
    ones: tuple


def _ones_rows(payload, parts):
    """Each row of ``payload`` as pieces of ``"0".join(parts)`` with its ones set.

    ``parts`` are the texts around the cells.  The all-zero row is rendered
    once and cut into ``ONES_CHUNK``-sized chunks that every row shares; a
    chunk that holds a one is re-sliced with ``"1"`` at the cell's offset.
    """
    zero = "0".join(parts)
    chunks = [zero[i:i + ONES_CHUNK] for i in range(0, len(zero), ONES_CHUNK)]
    where = []  # (chunk, offset) of each cell
    pos = -1
    for part in parts[:-1]:
        pos += len(part) + 1
        where.append(divmod(pos, ONES_CHUNK))
    for row in payload.ones:
        pieces = chunks.copy()
        for j in row:
            k, at = where[j]
            chunk = pieces[k]
            pieces[k] = chunk[:at] + "1" + chunk[at + 1:]
        yield pieces


def _json_ones(payload, out, pad):
    """``_json`` of the dense rows of a ``OnesRows`` payload."""
    if not payload.ones:
        out.append("[]")
        return
    inner = pad + "  "
    if payload.width:
        cell = "\n" + inner + "  "
        tail = "\n" + inner + "]"
        parts = ["[" + cell, *["," + cell] * (payload.width - 1), tail]
    else:
        parts = ["[]"]
    sep = "[\n" + inner
    for pieces in _ones_rows(payload, parts):
        out.append(sep)
        out += pieces
        sep = ",\n" + inner
    out.append("\n" + pad + "]")


def _text_ones(payload, cuts, out):
    """Space-separated rows of a ``OnesRows`` payload, each newline-ended.

    A cut column is preceded by ``|`` and a cut row by a dashed line.
    """
    cuts = {c for c in cuts if 0 < c < len(payload.ones)}
    width = payload.width
    seps = [" | " if j in cuts else " " for j in range(1, width)]
    parts = ["", *seps, "\n"] if width else ["\n"]
    rule = "-" * (2 * width + 2 * len(cuts) - 1) + "\n"
    for i, pieces in enumerate(_ones_rows(payload, parts)):
        if i in cuts:
            out.append(rule)
        out += pieces


def _json(value, out, pad):
    """Append ``json.dumps(value, indent=2, sort_keys=True)`` to ``out``.

    ``pad`` is the indent of the line ``value`` starts on.  A list of plain
    ints (no bools) becomes one piece built by ``str``, so a matrix costs a
    fixed number of C-level calls per row; a ``OnesRows`` payload renders
    as its dense rows would; every other scalar goes through
    ``json.dumps``.  Keys must be ``str``.
    """
    if isinstance(value, OnesRows):
        _json_ones(value, out, pad)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {key!r}")
            out.append(sep + inner + json.dumps(key) + ": ")
            _json(value[key], out, inner)
            sep = ",\n"
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            body = str(list(value))[1:-1].replace(", ", ",\n" + inner)
            out.append("[\n" + inner + body + "\n" + pad + "]")
            return
        sep = "[\n"
        for item in value:
            out.append(sep + inner)
            _json(item, out, inner)
            sep = ",\n"
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(value))


def emit(report: dict, fmt: str) -> str:
    """Render a report: stable JSON, plain text, or CSV for matrices.

    JSON is byte-identical to ``json.dumps(report, indent=2,
    sort_keys=True)`` but is assembled by ``_json`` into one list of pieces
    joined once.  A ``OnesRows`` matrix is rendered in every format from
    one zero-row template, whose chunks the rows share (``_ones_rows``);
    CSV needs one under ``results["matrix"]``.  The output is returned as
    one string, whose size ``benchmarks/tracer.py`` books as
    ``cli.emit_bytes``.
    """
    out = []
    if fmt == "json":
        _json(report, out, "")
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        matrix = report.get("results", {}).get("matrix")
        if not isinstance(matrix, OnesRows):
            raise InvalidParameterError("csv output needs a matrix payload")
        if not matrix.ones:
            return "\n"
        width = matrix.width
        parts = ["", *[","] * (width - 1), "\n"] if width else ["\n"]
        for pieces in _ones_rows(matrix, parts):
            out += pieces
        return "".join(out)
    out.append(f"command: {report['command']}\n")
    for key, value in sorted(report.get("params", {}).items()):
        out.append(f"{key}: {value}\n")
    results = report.get("results", {})
    for key, value in results.items():
        if isinstance(value, OnesRows):
            _text_ones(value, results.get("block_cuts", ()), out)
        elif key != "block_cuts":
            out.append(f"{key}: {value}\n")
    out.append(f"status: {report['status']}\n")
    return "".join(out)
