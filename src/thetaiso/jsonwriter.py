"""The JSON text of programs and reports.

``dumps_json`` prints the same bytes as ``json.dumps(obj, indent=2,
allow_nan=False)`` plus a newline: every float as the shortest text that
round-trips, so equal runs produce byte-identical files that parse back to
the same values in any standards-compliant parser.  Plain values go through
the standard encoder.  A long list of fixed-shape rows, such as a compiled
program's affine rows, is given as a ``Table``: each row shape is encoded
once and split at its slots, each distinct column value is turned into digits
once, and a slice of rows is one ``"".join`` over an object array that
interleaves the shape's pieces with the shared digit strings, with no
Python-level call per row.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["SLOT", "Table", "dumps_json"]


class _Slot:
    __slots__ = ()

    def __repr__(self):
        return "SLOT"


SLOT = _Slot()
"""The place in a ``Table`` row shape that a column fills."""


class Table:
    """A JSON list given as blocks of rows, each block one row shape.

    A block is ``(shape, columns)``: the shape is a plain JSON value holding
    ``SLOT`` markers, and columns an integer array with one row per slot
    (``np.asarray`` of a tuple of equal-length columns).  Item k of the
    block is the shape with its i-th slot, in JSON text order, filled by
    ``columns[i][k]``; a shape with no slot takes a ``(0, count)`` array.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = [(shape, np.asarray(columns)) for shape, columns in blocks]
        for _, columns in self.blocks:
            if columns.ndim != 2 or (columns.size and columns.dtype.kind not in "iu"):
                raise TypeError(f"Table columns must be a 2-D integer array, "
                                f"not {columns.dtype} of shape {columns.shape}")


def _finite_or_none(x):
    """x as a float for JSON, or None (null) for an inf or NaN JSON cannot hold."""
    return float(x) if math.isfinite(x) else None


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


# The writer's indent, and the most Table rows it joins in one go: a longer
# block is written a slice at a time, so only one slice's cells are held in
# an object array before their text joins the output.  On the 95,626-row
# rook 5x5 program (Python 3.11, numpy 2.4, a 2-CPU Xeon), slices of 1,024,
# 4,096 and 16,384 rows wrote in the same time, 256-row slices took about
# 50% longer and unsliced blocks about 15% longer.
_INDENT = 2
_SLICE = 1024

# What a SLOT writes in a shape's text, where the text is split into the
# pieces between slots; encoded JSON cannot hold it, as the standard encoder
# escapes control characters inside strings.
_MARK = "\0"


def _newline(level):
    return "\n" + " " * (_INDENT * level)


def _holds_nodes(obj):
    """Whether obj holds a Table or a SLOT.  Walks every dict and list, and
    refuses a non-string key, which json.dumps would stringify."""
    if obj is SLOT or isinstance(obj, Table):
        return True
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
        return any([_holds_nodes(value) for value in obj.values()])
    if isinstance(obj, (list, tuple)):
        return any([_holds_nodes(item) for item in obj])
    return False


def _write(obj, level, out):
    """Append the JSON text of obj, nested at level, to out.  Descends
    through the dicts and lists that hold a Table or SLOT; everything else is
    one call of the standard encoder."""
    if obj is SLOT:
        out.append(_MARK)
    elif isinstance(obj, Table):
        _write_table(obj, level, out)
    elif not _holds_nodes(obj):
        text = json.dumps(obj, indent=_INDENT, allow_nan=False, default=_json_default)
        out.append(text.replace("\n", _newline(level)))   # JSON text has no raw newline
    else:
        inner = _newline(level + 1)
        if isinstance(obj, dict):
            brackets = "{}"
            members = [(encode_basestring_ascii(key) + ": ", value) for key, value in obj.items()]
        else:
            brackets = "[]"
            members = [("", item) for item in obj]
        sep = brackets[0] + inner
        for prefix, value in members:
            out.append(sep + prefix)
            _write(value, level + 1, out)
            sep = "," + inner
        out.append(_newline(level) + brackets[1])


def _write_table(table, level, out):
    """Append the JSON list of table's rows.  A block's k slots split its
    shape's text into k + 1 pieces; a slice of rows is a (rows, 2k + 1)
    object array holding the pieces in its even columns and the rows' digit
    strings, one shared str per distinct value, in its odd ones, with the
    row separator after the last piece, and its text is one join."""
    inner = _newline(level + 1)
    sep = "[" + inner
    for shape, columns in table.blocks:
        text = []
        _write(shape, level + 1, text)
        pieces = "".join(text).split(_MARK)
        if len(pieces) != len(columns) + 1:
            raise ValueError(f"a Table row shape has {len(pieces) - 1} slots "
                             f"for {len(columns)} columns")
        values, inverse = np.unique(columns, return_inverse=True)
        digits = np.array([str(v) for v in values.tolist()], dtype=object)
        digits = digits[inverse.reshape(columns.shape)]
        row = np.empty(2 * len(pieces) - 1, dtype=object)
        row[0::2] = pieces
        row[-1] = pieces[-1] + "," + inner
        for start in range(0, columns.shape[1], _SLICE):
            chunk = digits[:, start:start + _SLICE]
            cells = np.empty((chunk.shape[1], len(row)), dtype=object)
            cells[:] = row
            cells[:, 1::2] = chunk.T
            cells[-1, -1] = pieces[-1]
            out.append(sep)
            out.append("".join(cells.ravel().tolist()))
            sep = "," + inner
    out.append("[]" if sep[0] == "[" else _newline(level) + "]")   # "[]": no rows


def dumps_json(obj):
    """Deterministic JSON text with round-trip floats; NaN and inf are errors.

    The text is byte for byte ``json.dumps(obj, indent=2, allow_nan=False,
    default=_json_default)`` and a newline, with each ``Table`` written as
    the list of its rows, except that a non-string key raises TypeError
    where json.dumps would stringify it.  NaN or inf raises ValueError, a
    value ``_json_default`` cannot convert TypeError, and a SLOT outside a
    Table's row shape ValueError.
    """
    out = []
    _write(obj, 0, out)
    out.append("\n")
    text = "".join(out)
    if _MARK in text:
        raise ValueError("SLOT outside a Table row shape")
    return text
