"""Deterministic CSV, JSON and SVG renderings of fragments and reports.

Every writer is a pure function from values to text; point order comes from
the canonical fragment ordering and floats are printed with fixed width, so
repeated runs produce byte-identical output.
"""

from __future__ import annotations

import json
import math

from .fragment import Fragment, orbits, shell_labels, shells
from .rootsystem import GroupId, OmegaVector, cartesian

_AXES = ("x", "y", "z", "w")

_SHELL_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)


def _fmt(value: float) -> str:
    out = f"{value:.12f}"
    return "0.000000000000" if out == "-0.000000000000" else out


def _rows(fragment: Fragment, normalize: bool):
    """Flat coefficients and Cartesian coordinates of each point in order;
    the vectors are built one at a time, not kept."""
    for flat in fragment.coeffs.tolist():
        yield flat, cartesian(OmegaVector.from_flat(fragment.group, flat), normalize)


def fragment_csv(fragment: Fragment, normalize: bool = True) -> str:
    k = fragment.group.rank
    header = [f"{c}{i + 1}" for i in range(k) for c in ("a", "b")]
    header += list(_AXES[:k])
    lines = [",".join(header)]
    for flat, cart in _rows(fragment, normalize):
        cells = [str(v) for v in flat]
        cells += [_fmt(c) for c in cart]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def fragment_json(fragment: Fragment, normalize: bool = True) -> str:
    doc = {
        "group": fragment.group.value,
        "n": fragment.n,
        "points": [
            {
                "omega": [flat[i:i + 2] for i in range(0, len(flat), 2)],
                "cart": [round(c, 12) + 0.0 for c in cart],
            }
            for flat, cart in _rows(fragment, normalize)
        ],
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
    return json.dumps(doc, indent=2) + "\n"


def fragment_svg(fragment: Fragment, normalize: bool = True) -> str:
    """1000x1000 canvas, origin centered, outermost shell at 450 px,
    4 px dots colored per shell."""
    if fragment.group is not GroupId.H2:
        raise ValueError("SVG rendering is only defined for H2 fragments")
    _, labels = shell_labels(fragment)
    cart = [xy for _, xy in _rows(fragment, normalize)]
    radius = max((math.hypot(x, y) for x, y in cart), default=0.0)
    scale = 450.0 / radius if radius > 1e-12 else 1.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" '
        'viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="white"/>',
    ]
    for (x, y), shell in zip(cart, labels.tolist()):
        cx = 500.0 + scale * x
        cy = 500.0 - scale * y
        color = _SHELL_COLORS[shell % len(_SHELL_COLORS)]
        parts.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="4" fill="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def line_report_csv(doc: dict) -> str:
    lines = ["kind,value,level,float"]
    for entry in doc["values"]:
        lines.append(
            f"point,{entry['value']},{entry['level']},{_fmt(entry['float'])}"
        )
    for entry in doc["deficiencies"]:
        lines.append(f"deficiency,{entry['value']},,{_fmt(entry['float'])}")
    return "\n".join(lines) + "\n"
