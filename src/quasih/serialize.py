"""Deterministic CSV, JSON and SVG renderings of fragments and reports.

Every writer is a pure function from values to text; point order comes from
the canonical fragment ordering and floats are printed with fixed width, so
repeated runs produce byte-identical output.

Every writer streams: ``fragment_csv_chunks``, ``fragment_json_chunks``
and ``fragment_svg_chunks`` yield the text ``CHUNK_ROWS`` points at a
time in one pass (the SVG takes its scale from the exact outermost shell
first), reading each slab of rows off the fragment's packed keys
(``Fragment.rows``), and the JSON orbits/shells tail ``CHUNK_ROWS``
entries at a time from the ``orbits`` and ``shells`` arrays; the
``compare`` and ``line`` reports stream the same way from their rows, so
no per-entry Python object outlives its chunk.  ``fragment_csv``,
``fragment_json``, ``fragment_svg``, ``line_report_json`` and
``line_report_csv`` join the same chunks into one string.  A
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
their fixed layout one template per entry.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fragment import Fragment, norm_keys, orbit_rows, orbits, shell_keys, shells
from .golden import PHI, cyclo_str, golden_str
from .kernel import cartesian_rows
from .lineanalysis import _level
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


def _decimal_words(c: np.ndarray, places: int, shortest: bool = False) -> np.ndarray:
    """c.shape + (w,) words of float64 values: ``"%.{places}f" % v``, or
    with ``shortest`` ``repr(round(v, places) + 0.0)``; a value that rounds
    to zero prints unsigned (``places`` is 3 or 12).

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
    words[..., 0] = np.where(k < 0, _MINUS, 0)
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
        texts = [repr(round(v, places) + 0.0) if shortest else "%.*f" % (places, v)
                 for v in c[python].tolist()]
        texts = [t[1:] if t.startswith("-") and not t.strip("-0.") else t for t in texts]
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


def _cartesian(group: GroupId, block: np.ndarray, normalize: bool) -> np.ndarray:
    """The float64 Cartesian rows of int64 coefficient rows: the scalar
    ``cartesian`` for H2, ``kernel.cartesian_rows`` for the others."""
    if group is GroupId.H2:
        return np.array([cartesian(OmegaVector.from_flat(group, f), normalize) for f in block.tolist()])
    return cartesian_rows(group, block)


def _chunks(fragment: Fragment, normalize: bool):
    """(int64 coefficient rows, float64 Cartesian rows), CHUNK_ROWS points
    at a time, in fragment order."""
    for start in range(0, fragment.size, CHUNK_ROWS):
        block = fragment.rows(start, start + CHUNK_ROWS)
        yield block, _cartesian(fragment.group, block, normalize)


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


def _slabs(*arrays):
    """The arrays cut in step into slabs of ``CHUNK_ROWS`` rows."""
    for start in range(0, len(arrays[0]), CHUNK_ROWS):
        yield [a[start:start + CHUNK_ROWS] for a in arrays]


def _json_doc(head: dict, *lists):
    """``json.dumps(doc, indent=2)`` and a newline, in pieces, for the
    members of ``head`` followed by each ``(name, entries)`` list: its
    entries come as texts that each hold a run of them, every entry led by
    ",\n    "; the first "," is dropped, and no entries print "[]"."""
    yield json.dumps(head, indent=2)[:-2]
    for name, entries in lists:
        yield ',\n  "%s": [' % name
        empty = True
        for text in entries:
            yield text[1:] if empty else text
            empty = False
        yield "]" if empty else "\n  ]"
    yield "\n}\n"


def _pairs(ints: np.ndarray) -> list:
    """The pieces of a list of [a, b] pairs at indent 8, from the
    (N, 2k, w) words of N rows (a1, b1, ..., ak, bk)."""
    pieces = []
    for i in range(0, ints.shape[1], 2):
        pieces += ["\n        [\n          ", ints[:, i], ",\n          ", ints[:, i + 1], "\n        ],"]
    pieces[-1] = "\n        ]"
    return pieces


def fragment_json_chunks(fragment: Fragment, normalize: bool = True):
    """The JSON text in pieces, byte for byte ``json.dumps(doc, indent=2)``:
    the head through ``json.dumps``, then each chunk of points, orbits and
    shells through the word columns of that layout; floats print as
    ``json`` prints them, the repr of round(c, 12) + 0.0."""
    k = fragment.group.rank

    def points():
        for block, carts in _chunks(fragment, normalize):
            floats = _decimal_words(carts, 12, shortest=True)
            pieces = [p for i in range(k) for p in ("\n        ", floats[:, i], ",")][:-1]
            yield _text(',\n    {\n      "omega": [', *_pairs(_int_words(block)),
                        '\n      ],\n      "cart": [', *pieces, "\n      ]\n    }")

    def orbit_entries():
        for dominant, sizes in _slabs(*orbits(fragment)):
            yield _text(',\n    {\n      "dominant": [', *_pairs(_int_words(dominant)),
                        '\n      ],\n      "size": ', _int_words(sizes), "\n    }")

    def shell_entries():
        for num, den, counts in _slabs(*shells(fragment)):
            num = _int_words(num)
            yield _text(',\n    {\n      "norm_num": [\n        ', num[:, 0], ",\n        ", num[:, 1],
                        '\n      ],\n      "norm_den": ', _int_words(den), ',\n      "count": ',
                        _int_words(counts), "\n    }")

    yield from _json_doc({"group": fragment.group.value, "n": fragment.n},
                         ("points", points()), ("orbits", orbit_entries()), ("shells", shell_entries()))


def fragment_json(fragment: Fragment, normalize: bool = True) -> str:
    return "".join(fragment_json_chunks(fragment, normalize))


def fragment_svg_chunks(fragment: Fragment, normalize: bool = True):
    """The SVG text in pieces: a 1000x1000 canvas, origin centered,
    outermost shell at 450 px, then one piece of 4 px dots per chunk,
    colored by its ``norm_keys`` among the ``shell_keys``.  The radius is
    the largest ``math.hypot`` of the orbits of the outermost shell's
    dominant rows (``orbit_rows``), mapped by ``_cartesian`` as every
    chunk is, or 0.0 with no points.  No other point can reach it: the
    planar map is a similarity, a float ``math.hypot`` is within a few
    ulps of its exact radius, and the next shell inward is far lower.
    For ``generate(H2, n)``, n >= 2, the outermost shell is the ten points
    n * root, and the next one's squared norm is lower by a share
    (2 - tau)(n - 1) / n**2 (measured through n = 52): 1.2% at n = 30,
    0.72% at n = 52, the largest the cap admits."""
    group = fragment.group
    if group is not GroupId.H2:
        raise ValueError("SVG rendering is only defined for H2 fragments")
    dominant = orbits(fragment)[0]
    keys, rank, shell = shell_keys(group, dominant)
    outer = orbit_rows(group, dominant[shell == len(keys) - 1])
    radius = max((math.hypot(x, y) for x, y in _cartesian(group, outer, normalize).tolist()), default=0.0)
    scale = 450.0 / radius if radius > 1e-12 else 1.0
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">\n<rect width="1000" height="1000" fill="white"/>'
    )
    for block, xy in _chunks(fragment, normalize):
        shell = rank[np.searchsorted(keys, norm_keys(group, block))]
        xy = _decimal_words(np.stack([500.0 + scale * xy[:, 0], 500.0 - scale * xy[:, 1]], axis=1), 3)
        yield _text('\n<circle cx="', xy[:, 0], '" cy="', xy[:, 1], '" r="4" fill="',
                    _COLOR_WORDS[shell % len(_SHELL_COLORS)], '"/>')
    yield "\n</svg>\n"


def fragment_svg(fragment: Fragment, normalize: bool = True) -> str:
    return "".join(fragment_svg_chunks(fragment, normalize))


def compare_json_chunks(head: dict, rows):
    """``json.dumps(doc, indent=2)`` and a newline, in pieces, for ``head``
    followed by "deficiencies": the text of each (p.a, p.b, q.a, q.b) row,
    ``CHUNK_ROWS`` rows a piece.  The text holds only [-+*()0-9a-z], which
    JSON quotes without escapes."""
    yield from _json_doc(head, ("deficiencies", (
        "".join(',\n    "%s"' % cyclo_str(*r) for r in chunk.tolist()) for chunk, in _slabs(rows))))


def _line_entries(rows):
    """(``golden_str`` text, level, float a + b*PHI) of each (a, b) row of
    the ``line`` report, ``CHUNK_ROWS`` rows a piece."""
    for chunk, in _slabs(rows):
        yield zip([golden_str(a, b) for a, b in chunk.tolist()], _level(*chunk.T).tolist(),
                  (chunk[:, 0] + chunk[:, 1] * PHI).tolist())


def line_report_json_chunks(head: dict, values: np.ndarray, deficiencies: np.ndarray):
    """``json.dumps(doc, indent=2)`` and a newline, in pieces, for the
    ``line`` report: ``head`` through ``json.dumps``, then "values" (with
    the level of each) and "deficiencies" from their (a, b) rows, each
    entry through one template of that layout.  Floats print as ``json``
    prints them, by ``float.__repr__``; a ``golden_str`` text holds only
    [-+*0-9a-z], which needs no escapes."""
    value = ',\n    {\n      "value": "%s",\n      "level": %d,\n      "float": %r\n    }'
    deficiency = ',\n    {\n      "value": "%s",\n      "float": %r\n    }'
    yield from _json_doc(
        head,
        ("values", ("".join(value % e for e in run) for run in _line_entries(values))),
        ("deficiencies", ("".join(deficiency % (text, x) for text, _, x in run)
                          for run in _line_entries(deficiencies))),
    )


def line_report_json(head: dict, values: np.ndarray, deficiencies: np.ndarray) -> str:
    return "".join(line_report_json_chunks(head, values, deficiencies))


def line_report_csv_chunks(values: np.ndarray, deficiencies: np.ndarray):
    """The ``line`` report as CSV, in pieces; a float rounding to -0
    prints as 0."""
    yield "kind,value,level,float\n"
    # "%.0s" prints a deficiency's level as nothing
    for template, rows in (("point,%s,%d,%.12f\n", values), ("deficiency,%s,%.0s,%.12f\n", deficiencies)):
        for run in _line_entries(rows):
            yield "".join(template % e for e in run).replace(",-0.000000000000", ",0.000000000000")


def line_report_csv(values: np.ndarray, deficiencies: np.ndarray) -> str:
    return "".join(line_report_csv_chunks(values, deficiencies))
