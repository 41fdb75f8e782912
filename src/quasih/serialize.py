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
slab, and each row is one ``%`` format, so no per-point object is built.
H2 keeps the scalar ``cartesian`` per point: its planar map is not one of
the orthonormal models.  The ``line`` report writes its fixed JSON layout
the same way, one template per entry.
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


def _chunks(fragment: Fragment, normalize: bool):
    """(coefficient rows, Cartesian rows) as lists, CHUNK_ROWS points at a
    time, in fragment order."""
    group = fragment.group
    for start in range(0, fragment.size, CHUNK_ROWS):
        block = fragment.rows(start, start + CHUNK_ROWS)
        flats = block.tolist()
        if group is GroupId.H2:
            carts = [cartesian(OmegaVector.from_flat(group, f), normalize) for f in flats]
        else:
            carts = cartesian_rows(group, block).tolist()
        yield flats, carts


def fragment_csv_chunks(fragment: Fragment, normalize: bool = True):
    """The CSV text in pieces: the header, then one piece per chunk.  A
    Cartesian cell is never first in its row, so a rounded negative zero
    always reads ",-0.000000000000" and is fixed in the joined chunk."""
    k = fragment.group.rank
    header = [f"{c}{i + 1}" for i in range(k) for c in ("a", "b")]
    yield ",".join(header + list(_AXES[:k])) + "\n"
    row = ",".join(["%d"] * (2 * k) + ["%.12f"] * k) + "\n"
    for flats, carts in _chunks(fragment, normalize):
        text = "".join([row % (*f, *c) for f, c in zip(flats, carts)])
        yield text.replace(",-0.000000000000", ",0.000000000000")


def fragment_csv(fragment: Fragment, normalize: bool = True) -> str:
    return "".join(fragment_csv_chunks(fragment, normalize))


def fragment_json_chunks(fragment: Fragment, normalize: bool = True):
    """The JSON text in pieces, byte for byte ``json.dumps(doc, indent=2)``:
    the head and the orbits/shells tail go through ``json.dumps``, each
    chunk of points through one template of that layout; floats print as
    ``json`` prints them, the repr of round(c, 12) + 0.0."""
    k = fragment.group.rank
    head = json.dumps({"group": fragment.group.value, "n": fragment.n}, indent=2)
    yield head[:-2] + ',\n  "points": ['
    pair = "        [\n          %d,\n          %d\n        ]"
    point = (
        '    {\n      "omega": [\n' + ",\n".join([pair] * k) + '\n      ],\n'
        '      "cart": [\n' + ",\n".join(["        %r"] * k) + "\n      ]\n    }"
    )
    sep = "\n"
    for flats, carts in _chunks(fragment, normalize):
        yield sep + ",\n".join([
            point % (*f, *[round(c, 12) + 0.0 for c in cs]) for f, cs in zip(flats, carts)
        ])
        sep = ",\n"
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
    chunk as float arrays; then each chunk of circles is one piece."""
    if fragment.group is not GroupId.H2:
        raise ValueError("SVG rendering is only defined for H2 fragments")
    _, labels = shell_labels(fragment)
    carts, radius = [], 0.0
    for _, chunk in _chunks(fragment, normalize):
        carts.append(np.array(chunk, dtype=float).reshape(-1, 2))
        radius = max([radius, *(math.hypot(x, y) for x, y in chunk)])
    scale = 450.0 / radius if radius > 1e-12 else 1.0
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">\n<rect width="1000" height="1000" fill="white"/>'
    )
    circle = '\n<circle cx="%.3f" cy="%.3f" r="4" fill="%s"/>'
    start = 0
    for xy in carts:
        shell = labels[start:start + len(xy)].tolist()
        start += len(xy)
        yield "".join([
            circle % (cx, cy, _SHELL_COLORS[s % len(_SHELL_COLORS)])
            for cx, cy, s in zip((500.0 + scale * xy[:, 0]).tolist(),
                                 (500.0 - scale * xy[:, 1]).tolist(), shell)
        ])
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
