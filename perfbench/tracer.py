"""Run one quasih CLI invocation with its layers traced from outside.

    python3 perfbench/tracer.py layers -- generate --group h2 --n 2
    python3 perfbench/tracer.py golden -- verify

The CLI runs in this process exactly as ``python -m quasih.cli`` would run it:
its stdout, stderr and exit code are left as they are.  When it returns, one
extra line ``perfbench-stats <json>`` goes to stderr.

``layers`` wraps the public functions named in ``LAYERS`` at every place a
``quasih.*`` module binds them (``cli``, ``serialize`` and ``checks`` import
them by name, so patching the defining module alone would miss calls), plus
each registered ``verify`` check.  Calls and self time are aggregated per
function; no span is kept per call, since ``cartesian`` and ``norm_sq`` run
once per point.

``golden`` counts the scalar Z[tau] and Z[xi] operations in ``COUNTED``.
Wrapping them roughly doubles the run time, which is why the counts come from
a pass of their own instead of the timed trace.

The package is imported from ``PYTHONPATH``; the benchmark points it at the
checkout's ``src``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

LAYERS = {
    "fragment": ("generate", "orbits", "shells", "generate_rootsum",
                 "check_tenfold", "cached_fragment"),
    "rootsystem": ("cartesian", "norm_sq"),
    "affine": ("enumerate_generalized", "verify_identities"),
    "cutproject": ("sigma_2d", "deficiencies_2d", "fragment_in_window"),
    "lineanalysis": ("line_closed_form", "levels", "sigma_1d",
                     "line_bruteforce", "scaling_check"),
    "serialize": ("fragment_csv", "fragment_json", "fragment_svg",
                  "line_report_json", "line_report_csv"),
    "cli": ("main",),
}

COUNTED = {
    "GoldenInt.add": ("GoldenInt", ("__add__", "__radd__")),
    "GoldenInt.sub": ("GoldenInt", ("__sub__", "__rsub__")),
    "GoldenInt.mul": ("GoldenInt", ("__mul__", "__rmul__")),
    "GoldenInt.sign": ("GoldenInt", ("sign",)),
    "GoldenRational.ops": ("GoldenRational", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "sign", "__lt__", "__le__")),
    "CycloInt.mul": ("CycloInt", ("__mul__", "__rmul__")),
    "CycloInt.star": ("CycloInt", ("star",)),
}

STATS_PREFIX = "perfbench-stats "


def _quasih_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quasih" or name.startswith("quasih."))]


def _rebind(original, replacement) -> None:
    for module in _quasih_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _n_arg(args, kwargs):
    return kwargs["n"] if "n" in kwargs else args[0]


class LayerTracer:
    """Per-function calls, total and self time, plus a few work counters."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # [child seconds, child names] per open call

    def wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before else None
            if stack:
                stack[-1][1].add(name)
            frame = [0.0, set()]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec["calls"] += 1
                rec["total_s"] += dt
                rec["self_s"] += dt - frame[0]
            if after:
                after(rec, args, kwargs, result, frame[1], token)
            return result

        return traced

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = sys.modules[f"quasih.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                _rebind(original, self.wrap(f"{layer}.{fname}", original))
        registry = sys.modules["quasih.checks"]._REGISTRY
        for check, fn in list(registry.items()):
            registry[check] = self.wrap(f"checks.{check}", fn)


def _add(rec, key, amount):
    rec[key] = rec.get(key, 0) + amount


def _repeat(rec, args, kwargs, result, children, token):
    seen = rec.setdefault("_seen", [])
    n = _n_arg(args, kwargs)
    _add(rec, "repeats", int(n in seen))
    seen.append(n)


def _points(rec, args, kwargs, result, children, token):
    _add(rec, "points", result.size)


def _sigma_2d(rec, args, kwargs, result, children, token):
    _points(rec, args, kwargs, result, children, token)
    _repeat(rec, args, kwargs, result, children, token)


def _cache_hit(rec, args, kwargs, result, children, token):
    _add(rec, "hits", int("fragment.generate" not in children))


def _bytes(rec, args, kwargs, result, children, token):
    _add(rec, "bytes", len(result.encode()))


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_delta(rec, args, kwargs, result, children, token):
    _add(rec, "rss_delta_kb", _max_rss_kb() - token)


_BEFORE = {"affine.enumerate_generalized": _max_rss_kb}
_AFTER = {
    "fragment.generate": _points,
    "fragment.cached_fragment": _cache_hit,
    "cutproject.sigma_2d": _sigma_2d,
    "lineanalysis.line_closed_form": _repeat,
    "affine.enumerate_generalized": _rss_delta,
    **{f"serialize.{name}": _bytes for name in LAYERS["serialize"]},
}


def count_golden() -> dict[str, list[int]]:
    golden = sys.modules["quasih.golden"]
    counts: dict[str, list[int]] = {}
    for key, (cls_name, methods) in COUNTED.items():
        cls = getattr(golden, cls_name)
        cell = counts.setdefault(key, [0])
        for method in methods:
            fn = cls.__dict__.get(method)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _cell=cell, **kwargs):
                _cell[0] += 1
                return _fn(*args, **kwargs)

            setattr(cls, method, counted)
    return counts


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("layers", "golden") or argv[1] != "--":
        sys.stderr.write("usage: tracer.py {layers|golden} -- <quasih cli args>\n")
        return 1
    mode, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import quasih.cli
    stats: dict = {"mode": mode, "import_s": time.perf_counter() - t0}
    if mode == "layers":
        tracer = LayerTracer()
        tracer.install()
    else:
        counts = count_golden()
    try:
        return quasih.cli.main(cli_args)
    finally:
        if mode == "layers":
            for rec in tracer.stats.values():
                rec.pop("_seen", None)
            stats["functions"] = tracer.stats
        else:
            stats["counts"] = {key: cell[0] for key, cell in counts.items()}
        sys.stdout.flush()
        sys.stderr.write(STATS_PREFIX + json.dumps(stats, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
