"""Deterministic CSV, JSON and SVG renderings of fragments and reports.

Every writer is a pure function from values to text; point order comes from
the canonical fragment ordering and floats are printed with fixed width, so
repeated runs produce byte-identical output.

The fragment writers stream: ``fragment_csv_chunks``,
``fragment_json_chunks`` and ``fragment_svg_chunks`` yield the text
``CHUNK_ROWS`` points at a time, reading each slab of rows off the
fragment's packed keys (``Fragment.rows``), and ``fragment_csv``,
``fragment_json`` and ``fragment_svg`` join the same chunks; the
``compare`` report streams the same way from the deficiency rows.  A
chunk's Cartesian coordinates come from ``kernel.cartesian_rows`` on the
slab; H2 keeps the scalar ``cartesian`` per point, as its planar map is
not one of the orthonormal models.  The fragment writers print a chunk
from its int64 coefficient and float64 coordinate columns at once:
``_int_words`` and ``_decimal_words`` look up 4-character digit words in
tables, ``_text`` lays the cells and the literal text of the row layout
side by side, and one compress drops the NUL padding.  A float whose
decimal the tables cannot settle exactly takes Python's own text, so the
bytes are those of ``"%d"``, ``"%.12f"``, ``"%.3f"`` and
``repr(round(c, 12) + 0.0)``.  The ``compare`` and ``line`` reports write
their fixed JSON layout one template per entry.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fragment import Fragment, orbits, shell_labels, shells
from .golden import cyclo_str
from .kernel import cartesian_rows
from .rootsystem import GroupId, OmegaVector, cartesian

# Points per streamed chunk: a chunk's text and its temporaries are the
# writers' working memory, and 1,024 rows cost no time against 8,192.
CHUNK_ROWS = 1024

_AXES = ("x", "y", "z", "w")

_SHELL_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)


# Digit tables for the text formatter, one uint32 word of 4 characters per
# entry: the 4-digit groups 0000..9999 in full, with leading zeros as NUL
# (the units digit kept) and with trailing zeros as NUL (the first digit
# kept), "ddd." for an integer part below 1000 and "ddd\0" for 3 digits.
# Built from uint8 digits, so the temporaries stay a few 10 kB.
_D = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS = np.stack(np.meshgrid(_D, _D, _D, _D, indexing="ij"), axis=-1).reshape(10_000, 4)
_ZERO = _DIGITS == ord("0")
_LEADING = np.where(np.logical_and.accumulate(_ZERO, axis=1) & (np.arange(4) < 3), 0, _DIGITS)
_TRAILING = np.where(np.logical_and.accumulate(_ZERO[:, ::-1], axis=1)[:, ::-1] & (np.arange(4) > 0),
                     0, _DIGITS)
_FULL, _LEAD, _TRAIL, _POINT, _TAIL3 = (t.view(np.uint32).ravel() for t in (
    _DIGITS,
    _LEADING,
    _TRAILING,
    np.concatenate([_LEADING[:1000, 1:], np.full((1000, 1), ord("."), np.uint8)], axis=1),
    np.where(np.arange(4) < 3, _DIGITS[::10], 0),
))
del _D, _ZERO


def _words(text: str, width: int = 0) -> np.ndarray:
    """``text`` as NUL-padded uint32 words, at least ``width`` of them."""
    raw = text.encode("ascii")
    return np.frombuffer(raw.ljust(4 * max(width, -(-len(raw) // 4)), b"\0"), np.uint32)


_MINUS = _words("-")[0]
_COLOR_WORDS = np.stack([_words(c, 2) for c in _SHELL_COLORS])


def _int_words(x: np.ndarray) -> np.ndarray:
    """x.shape + (w,) words of ``"%d" % v`` for int64 values, up to the
    int64 extremes: a sign word, then 4-digit groups from the most
    significant."""
    neg = x < 0
    mag = np.abs(x).astype(np.uint64)  # |int64 min| wraps to itself, 2**63 as uint64
    groups = -(-len(str(int(mag.max(initial=0)))) // 4)
    words = np.empty(x.shape + (groups + 1,), np.uint32)
    words[..., 0] = np.where(neg, _MINUS, 0)
    for i in range(groups):
        unit = np.uint64(10 ** (4 * i))
        q = mag // unit if i == groups - 1 else mag // unit % np.uint64(10_000)
        word = _LEAD[q] if i == 0 else np.where(mag >= unit, _LEAD[q], 0)
        if i < groups - 1:
            word = np.where(mag >= unit * np.uint64(10_000), _FULL[q], word)
        words[..., groups - i] = word
    return words


def _decimal_words(c: np.ndarray, places: int, shortest: bool = False,
                   signed_zero: bool = False) -> np.ndarray:
    """c.shape + (w,) words of float64 values: ``"%.{places}f" % v``, or
    with ``shortest`` ``repr(round(v, places) + 0.0)``; a value that rounds
    to zero prints unsigned unless ``signed_zero`` (``places`` is 3 or 12).

    k = rint(v * 10**places) is exact where the product lies at least one
    ``np.spacing`` from a half-integer: the product is off by at most half
    of one.  Then "%f" is the sign, k // 10**places and its digits; and the
    repr of round(v, places), the double nearest k / 10**places, is that
    decimal with its trailing zeros stripped, one kept after the point: at
    most 15 significant digits below 1000, which a double keeps.  Values
    of 1000 and more, near-ties, non-finite values and (with ``shortest``)
    0 < |k| < 10**(places - 4), which repr writes with an exponent, take
    Python's own text."""
    scale = 10 ** places
    with np.errstate(all="ignore"):
        prod = c * float(scale)
        k = np.rint(prod)
        table = (np.abs(k) < 1000.0 * scale) & (
            0.5 - np.abs(prod - k) >= np.spacing(np.abs(prod)))
    if shortest:
        table &= (k == 0) | (np.abs(k) >= scale // 10_000)
    whole, frac = np.divmod(np.abs(np.where(table, k, 0.0)).astype(np.int64), scale)
    words = np.zeros(c.shape + (2 + -(-places // 4),), np.uint32)
    words[..., 0] = np.where(np.signbit(c) if signed_zero else k < 0, _MINUS, 0)
    words[..., 1] = _POINT[whole]
    if places == 3:
        words[..., 2] = _TAIL3[frac]
    else:
        high, low = np.divmod(frac, 10 ** 8)
        groups = np.stack([high, *np.divmod(low, 10_000)], axis=-1)
        if shortest:
            col = np.arange(1, 4)
            last = np.maximum(((groups != 0) * col).max(axis=-1), 1)[..., None]
            words[..., 2:] = np.where(col < last, _FULL[groups], np.where(col == last, _TRAIL[groups], 0))
        else:
            words[..., 2:] = _FULL[groups]
    python = np.nonzero(~table)
    if len(python[0]):
        texts = []
        for v in c[python].tolist():
            text = repr(round(v, places) + 0.0) if shortest else "%.*f" % (places, v)
            if not signed_zero and text.startswith("-") and not text.strip("-0."):
                text = text[1:]
            texts.append(text)
        width = max(words.shape[-1], *(-(-len(t) // 4) for t in texts))
        words = np.concatenate([words, np.zeros(c.shape + (width - words.shape[-1],), np.uint32)], axis=-1)
        words[python] = [_words(t, width) for t in texts]
    return words


def _text(*pieces) -> str:
    """The rows of text, each the pieces in order with the NUL padding
    dropped: a ``str`` is the same in every row, and an (N, w) array holds
    each row's NUL-padded uint32 words."""
    rows = max(len(p) for p in pieces if not isinstance(p, str))
    cols = [np.frombuffer(p.encode("ascii"), np.uint8) if isinstance(p, str)
            else p.view(np.uint8) for p in pieces]
    buf = np.empty((rows, sum(c.shape[-1] for c in cols)), np.uint8)
    start = 0
    for c in cols:
        buf[:, start:start + c.shape[-1]] = c
        start += c.shape[-1]
    buf = buf.ravel()
    return buf[buf != 0].tobytes().decode("ascii")


def _chunks(fragment: Fragment, normalize: bool):
    """(int64 coefficient rows, float64 Cartesian rows), CHUNK_ROWS points
    at a time, in fragment order."""
    group = fragment.group
    for start in range(0, fragment.size, CHUNK_ROWS):
        block = fragment.rows(start, start + CHUNK_ROWS)
        if group is GroupId.H2:
            carts = np.array([
                cartesian(OmegaVector.from_flat(group, f), normalize) for f in block.tolist()
            ])
        else:
            carts = cartesian_rows(group, block)
        yield block, carts


def fragment_csv_chunks(fragment: Fragment, normalize: bool = True):
    """The CSV text in pieces: the header, then one piece per chunk.  A
    Cartesian cell that rounds to zero prints unsigned, "0.000000000000"."""
    k = fragment.group.rank
    header = [f"{c}{i + 1}" for i in range(k) for c in ("a", "b")]
    yield ",".join(header + list(_AXES[:k])) + "\n"
    for block, carts in _chunks(fragment, normalize):
        ints, floats = _int_words(block), _decimal_words(carts, 12)
        cells = [ints[:, j] for j in range(2 * k)] + [floats[:, j] for j in range(k)]
        yield _text(*[p for cell in cells for p in (cell, ",")][:-1], "\n")


def fragment_csv(fragment: Fragment, normalize: bool = True) -> str:
    return "".join(fragment_csv_chunks(fragment, normalize))


def fragment_json_chunks(fragment: Fragment, normalize: bool = True):
    """The JSON text in pieces, byte for byte ``json.dumps(doc, indent=2)``:
    the head and the orbits/shells tail go through ``json.dumps``, each
    chunk of points through the word columns of that layout; floats print
    as ``json`` prints them, the repr of round(c, 12) + 0.0."""
    k = fragment.group.rank
    head = json.dumps({"group": fragment.group.value, "n": fragment.n}, indent=2)
    yield head[:-2] + ',\n  "points": ['
    first = True
    for block, carts in _chunks(fragment, normalize):
        ints, floats = _int_words(block), _decimal_words(carts, 12, shortest=True)
        pieces = [',\n    {\n      "omega": [']
        for i in range(k):
            pieces += ["\n        [\n          ", ints[:, 2 * i], ",\n          ",
                       ints[:, 2 * i + 1], "\n        ]" + ("," if i < k - 1 else "")]
        pieces.append('\n      ],\n      "cart": [')
        for i in range(k):
            pieces += ["\n        ", floats[:, i], "," if i < k - 1 else ""]
        text = _text(*pieces, "\n      ]\n    }")
        yield text[1:] if first else text
        first = False
    tail = {
        "orbits": [
            {"dominant": [[c.a, c.b] for c in o.dominant.coords], "size": o.size}
            for o in orbits(fragment)
        ],
        "shells": [
            {
                "norm_num": [s.norm.num.a, s.norm.num.b],
                "norm_den": s.norm.den,
                "count": s.size,
            }
            for s in shells(fragment)
        ],
    }
    close = "\n  ]" if fragment.size else "]"
    yield close + ",\n" + json.dumps(tail, indent=2)[2:] + "\n"


def fragment_json(fragment: Fragment, normalize: bool = True) -> str:
    return "".join(fragment_json_chunks(fragment, normalize))


def fragment_svg_chunks(fragment: Fragment, normalize: bool = True):
    """The SVG text in pieces: a 1000x1000 canvas, origin centered,
    outermost shell at 450 px, 4 px dots colored per shell.  The scale
    needs the largest radius first, so the Cartesian rows are kept per
    chunk; then each chunk of circles is one piece.  The radius is the
    largest ``math.hypot``, which ``np.hypot`` may miss by an ulp, so
    numpy only picks the rows within 1e-12 of its maximum."""
    if fragment.group is not GroupId.H2:
        raise ValueError("SVG rendering is only defined for H2 fragments")
    _, labels = shell_labels(fragment)
    carts, radius = [], 0.0
    for _, xy in _chunks(fragment, normalize):
        carts.append(xy)
        h = np.hypot(xy[:, 0], xy[:, 1])
        near = xy[h >= h.max() * (1 - 1e-12)].tolist()
        radius = max([radius, *(math.hypot(x, y) for x, y in near)])
    scale = 450.0 / radius if radius > 1e-12 else 1.0
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">\n<rect width="1000" height="1000" fill="white"/>'
    )
    start = 0
    for xy in carts:
        shell = labels[start:start + len(xy)] % len(_SHELL_COLORS)
        start += len(xy)
        xy = np.stack([500.0 + scale * xy[:, 0], 500.0 - scale * xy[:, 1]], axis=1)
        xy = _decimal_words(xy, 3, signed_zero=True)
        yield _text('\n<circle cx="', xy[:, 0], '" cy="', xy[:, 1], '" r="4" fill="',
                    _COLOR_WORDS[shell], '"/>')
    yield "\n</svg>\n"


def fragment_svg(fragment: Fragment, normalize: bool = True) -> str:
    return "".join(fragment_svg_chunks(fragment, normalize))


def compare_json_chunks(head: dict, rows):
    """``json.dumps(doc, indent=2)`` and a newline, in pieces, for ``head``
    followed by "deficiencies": the text of each (p.a, p.b, q.a, q.b) row,
    ``CHUNK_ROWS`` rows a piece.  The text holds only [-+*()0-9a-z], which
    JSON quotes without escapes."""
    yield json.dumps(head, indent=2)[:-2] + ',\n  "deficiencies": ['
    sep = "\n"
    for start in range(0, len(rows), CHUNK_ROWS):
        yield sep + ",\n".join(
            ['    "%s"' % cyclo_str(*r) for r in rows[start:start + CHUNK_ROWS].tolist()]
        )
        sep = ",\n"
    yield ("\n  ]" if len(rows) else "]") + "\n}\n"


def line_report_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, for the ``line``
    report: its scalar head through ``json.dumps``, then each entry of
    "values" and "deficiencies" through one template of that layout.
    Floats print as ``json`` prints them, by ``float.__repr__``; a
    ``golden_str`` text holds only [-+*0-9a-z], which needs no escapes."""
    head = {k: v for k, v in doc.items() if k not in ("values", "deficiencies")}
    value = '    {\n      "value": "%s",\n      "level": %d,\n      "float": %r\n    }'
    deficiency = '    {\n      "value": "%s",\n      "float": %r\n    }'
    lists = (
        ("values", [value % (e["value"], e["level"], e["float"]) for e in doc["values"]]),
        ("deficiencies", [deficiency % (e["value"], e["float"]) for e in doc["deficiencies"]]),
    )
    parts = [json.dumps(head, indent=2)[:-2]]
    for key, entries in lists:
        items = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
        parts.append(',\n  "%s": %s' % (key, items))
    return "".join(parts) + "\n}\n"


def line_report_csv(doc: dict) -> str:
    """The ``line`` report as CSV; a float rounding to -0 prints as 0."""
    lines = ["kind,value,level,float\n"]
    lines += ["point,%s,%d,%.12f\n" % (e["value"], e["level"], e["float"]) for e in doc["values"]]
    lines += ["deficiency,%s,,%.12f\n" % (e["value"], e["float"]) for e in doc["deficiencies"]]
    return "".join(lines).replace(",-0.000000000000", ",0.000000000000")
