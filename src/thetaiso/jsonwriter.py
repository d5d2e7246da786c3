"""The JSON text of programs and reports, written a column at a time.

``dumps_json`` prints the same bytes as ``json.dumps(obj, indent=2,
allow_nan=False)`` plus a newline: every float as the shortest text that
round-trips, so equal runs produce byte-identical files that parse back to
the same values in any standards-compliant parser.  The standard encoder
drops to pure Python, one generator step per scalar, whenever an indent is
set; this writer instead encodes a list's numbers, strings, rows or
same-keyed objects one column at a time with C-level ``map`` calls.
"""

from __future__ import annotations

from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

__all__ = ["dumps_json"]


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


# The writer's indent, and the longest run of list items it encodes in one
# go: a longer list is written a slice at a time, so the text of only one
# slice is held as per-item strings before it joins the output.  On the
# 95,626-row rook 5x5 program, slices of 256 to 1,024 rows were the fastest
# (4,096: about 15% slower).
_INDENT = 2
_SLICE = 1024

_NUMBER_TYPES = frozenset((int, float))
_NONFINITE = frozenset(("nan", "inf", "-inf"))   # float reprs JSON has no text for


def _newline(level):
    return "\n" + " " * (_INDENT * level)


def _nonfinite(text):
    return ValueError(f"Out of range float values are not JSON compliant: {text}")


def _key_text(key):
    """The quoted key and separator that start a member; json.dumps would
    stringify a non-string key, so refuse it instead."""
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {type(key)}")
    return encode_basestring_ascii(key) + ": "


def _encode(items, level):
    """The JSON text of each of items, nested at level, one column at a time.

    Numbers and strings go through one ``map`` each.  A list of lists is
    flattened, its elements encoded as one column, and regrouped.  A list
    of dicts with the same keys is encoded one key at a time and the columns
    filled into one template.  Anything else goes element by element.  Each
    text equals what ``json.dumps(indent=_INDENT, allow_nan=False)`` prints
    for the item at that depth.
    """
    kinds = set(map(type, items))
    if kinds <= _NUMBER_TYPES:
        texts = list(map(repr, items))
        if float in kinds and not _NONFINITE.isdisjoint(texts):
            raise _nonfinite(next(t for t in texts if t in _NONFINITE))
        return texts
    if kinds == {str}:
        return list(map(encode_basestring_ascii, items))
    inner, outer = _newline(level + 1), _newline(level)
    if kinds <= {list, tuple}:
        lengths = list(map(len, items))
        texts = _encode(list(chain.from_iterable(items)), level + 1)
        sep = "," + inner
        rest = iter(texts)
        if len(set(lengths)) == 1 and lengths[0]:   # one template fills every row
            template = "[" + inner + sep.join(["%s"] * lengths[0]) + outer + "]"
            return list(map(template.__mod__, zip(*[rest] * lengths[0])))
        return ["[" + inner + sep.join(islice(rest, length)) + outer + "]" if length else "[]"
                for length in lengths]
    if kinds == {dict}:
        key_sets = set(map(tuple, items))
        if len(key_sets) == 1:
            keys = key_sets.pop()
            if not keys:
                return ["{}"] * len(items)
            template = "{" + inner + ("," + inner).join(
                _key_text(key).replace("%", "%%") + "%s" for key in keys
            ) + outer + "}"
            columns = [_encode(list(map(itemgetter(key), items)), level + 1) for key in keys]
            return list(map(template.__mod__, zip(*columns)))
    texts = []
    for item in items:
        if isinstance(item, str):
            texts.append(encode_basestring_ascii(item))
        elif item is None:
            texts.append("null")
        elif item is True:
            texts.append("true")
        elif item is False:
            texts.append("false")
        elif isinstance(item, int):
            texts.append(int.__repr__(item))
        elif isinstance(item, float):
            text = float.__repr__(item)
            if text in _NONFINITE:
                raise _nonfinite(text)
            texts.append(text)
        elif isinstance(item, (list, tuple)):
            texts += _encode([list(item)], level)
        elif isinstance(item, dict):
            texts += _encode([dict(item)], level)
        else:
            texts += _encode([_json_default(item)], level)
    return texts


def _write(obj, level, out):
    """Append the JSON text of obj, nested at level, to out.  Descends
    through dicts, and writes a list longer than ``_SLICE`` a slice at a
    time; everything else is encoded whole."""
    inner, outer = _newline(level + 1), _newline(level)
    if type(obj) is dict and obj:
        member = "{" + inner
        for key, value in obj.items():
            out.append(member + _key_text(key))
            _write(value, level + 1, out)
            member = "," + inner
        out.append(outer + "}")
    elif type(obj) in (list, tuple) and len(obj) > _SLICE:
        sep = "," + inner
        out.append("[" + inner)
        for start in range(0, len(obj), _SLICE):
            if start:
                out.append(sep)
            out.append(sep.join(_encode(obj[start:start + _SLICE], level + 1)))
        out.append(outer + "]")
    else:
        out += _encode([obj], level)


def dumps_json(obj):
    """Deterministic JSON text with round-trip floats; NaN and inf are errors.

    The text is byte for byte ``json.dumps(obj, indent=2, allow_nan=False,
    default=_json_default)`` and a newline, except that a non-string key
    raises TypeError where json.dumps would stringify it.  NaN or inf raises
    ValueError and a value ``_json_default`` cannot convert TypeError; of
    several faults in one document, the first the writer meets is reported.
    """
    out = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)
