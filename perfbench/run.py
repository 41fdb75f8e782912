"""End-to-end and per-layer benchmark of the quasih command line.

    python3 perfbench/run.py --workload export --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the CLI is imported from its ``src``.

Every invocation is a cold ``python -m quasih.cli ...`` subprocess, so the
interpreter start, the imports and every ``lru_cache`` fill stay inside the
timing, as users pay them on every run.  One client drives a closed loop:
each invocation starts only after the previous one exits.  The seed only
permutes the order of the invocations within a pass; the sizes are fixed,
so every seed does the same work.  Each output is checked against
``oracle.json`` (sha256 digests recorded at the seed commit, exit codes and
point counts); a wrong exit code, digest or count, or a timeout, is one
failed invocation.  Nothing is retried.

``--trace 0`` times whole passes over the workload and reports the
end-to-end metrics (medians over the passes of the run; a pass starts only
if it is likely to end within ``--seconds``, and every run makes at least
two).  On a shared 2-core host the machine's speed drifts by 20-40% within
minutes, so pass times are given in ``ref``: the median time of a fixed
pure-Python loop (``reference_loops``) that this process runs before,
between and after the invocations of the same pass.  Over ten seeds this
cut the quartile spread of whole runs by about a quarter against raw
seconds, which stay in the detail line.

``--trace 1`` alternates untraced passes with passes under
``tracer.py layers``, then makes two ``tracer.py golden`` passes side by
side, and reports the per-layer metrics.

The last line of stdout is the result object; the line before it holds the
per-pass figures, the failures and the environment the run saw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import selectors
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # fragment closure, cartesian and the writers; orbits (json), shells (svg)
    "export": (
        ("generate", "--group", "h4", "--n", "3", "--format", "csv"),
        ("generate", "--group", "h4", "--n", "2", "--format", "json"),
        ("generate", "--group", "h2", "--n", "10", "--format", "svg"),
    ),
    # verify: the affine enumeration, many small cached fragments, sigma_2d
    # at small windows; compare and line: sigma_2d at a large window and the
    # 1D section at large n.  One workload rather than two, so that each run
    # holds about three 20 s passes: on a shared host, runs of one short
    # pass each spread by more than the bounds allow.
    "analysis": (
        ("verify",),
        ("compare", "--n", "6"),
        ("line", "--n", "48"),
    ),
}

REF_LOOPS = 5
REF_ITERATIONS = 400_000

SETUP_ARGS = ("--help",)
SETUP_RUNS = 7
MIN_PASSES = 2
TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "points_per_ref": "points/ref",
    "peak_rss_mb": "MB",
}

CHECK_NAMES = (
    "counts", "word-table", "orbits", "identities", "conditions",
    "cartan-tables", "line", "cutproject-1d", "mn-nn", "oracle",
    "cutproject-2d", "decompose", "scaling", "star-map", "min-distance",
    "tenfold", "a2-lattice",
)

# Traced functions whose self time and call count are reported; the base
# (calls) always sits beside the time.
TIMED = (
    "fragment.generate", "fragment.orbits", "fragment.shells",
    "fragment.generate_rootsum", "fragment.check_tenfold",
    "rootsystem.cartesian", "rootsystem.norm_sq",
    "affine.enumerate_generalized", "affine.verify_identities",
    "cutproject.sigma_2d", "cutproject.deficiencies_2d",
    "cutproject.fragment_in_window",
    "lineanalysis.line_closed_form", "lineanalysis.levels",
    "lineanalysis.sigma_1d", "lineanalysis.line_bruteforce",
    "lineanalysis.scaling_check",
    "serialize.fragment_csv", "serialize.fragment_json",
    "serialize.fragment_svg", "serialize.line_report_json",
    "cli.main",
)
GOLDEN = (
    "GoldenInt.add", "GoldenInt.sub", "GoldenInt.mul", "GoldenInt.sign",
    "GoldenRational.ops", "CycloInt.mul", "CycloInt.star",
)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------- running


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(argv: list[str], timeout: float = TIMEOUT_S) -> dict:
    """Run one child to exit; wall time from spawn to exit, its own peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        deadline = t0 + timeout
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": proc.returncode,
        "out": b"".join(chunks[out_fd]),
        "err": b"".join(chunks[err_fd]),
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": timed_out,
    }


def reference_loops() -> list[float]:
    """Times of a fixed pure-Python loop; their median is one ``ref``."""
    times = []
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def cli_argv(args: tuple[str, ...], mode: str | None = None) -> list[str]:
    if mode is None:
        return [sys.executable, "-m", "quasih.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), mode, "--", *args]


# ---------------------------------------------------------------- oracle


def _drop_elapsed(value):
    if isinstance(value, dict):
        return {k: _drop_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_drop_elapsed(v) for v in value]
    return value


def digest_and_points(args: tuple[str, ...], out: bytes) -> tuple[str, int, list]:
    """sha256 of the output (``verify``: with every ``elapsed`` key dropped),
    the point count it states and, for ``verify``, the failing checks."""
    command = args[0]
    failing: list = []
    if command == "verify":
        report = _drop_elapsed(json.loads(out))
        failing = sorted(c["name"] for c in report["checks"] if not c["passed"])
        canonical = json.dumps(report, sort_keys=True).encode()
        decompose = next(c for c in report["checks"] if c["name"] == "decompose")
        points = decompose["details"]["points_checked"]
        return hashlib.sha256(canonical).hexdigest(), points, failing
    if command == "generate":
        fmt = args[args.index("--format") + 1] if "--format" in args else "csv"
        if fmt == "csv":
            points = out.count(b"\n") - 1
        elif fmt == "json":
            points = len(json.loads(out)["points"])
        else:
            points = out.count(b"<circle ")
    elif command == "compare":
        points = json.loads(out)["sigma_count"]
    else:  # line
        points = json.loads(out)["count"]
    return hashlib.sha256(out).hexdigest(), points, failing


def load_oracle() -> dict:
    with open(HERE / "oracle.json") as fh:
        return json.load(fh)


def judge(args: tuple[str, ...], run: dict, oracle: dict) -> tuple[int, str | None]:
    """Points written and the reason the invocation failed (None if it passed)."""
    key = " ".join(args)
    expected = oracle[key]
    if run["timed_out"]:
        return 0, f"timed out after {TIMEOUT_S:.0f} s"
    if run["rc"] != expected["exit"]:
        return 0, f"exit code {run['rc']}, expected {expected['exit']}"
    try:
        digest, points, failing = digest_and_points(args, run["out"])
    except (ValueError, KeyError, StopIteration, TypeError) as exc:
        return 0, f"unreadable output: {type(exc).__name__}: {exc}"
    if failing != expected.get("failing", []):
        return 0, f"failing checks {failing}, expected {expected.get('failing', [])}"
    if points != expected["points"]:
        return 0, f"{points} points, expected {expected['points']}"
    if digest != expected["sha256"]:
        return 0, "output digest differs from the oracle"
    return points, None


# ---------------------------------------------------------------- passes


class Tally:
    """Attempted and failed invocations over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []

    def judge(self, args, run, oracle) -> int:
        self.attempted += 1
        points, reason = judge(args, run, oracle)
        if reason is not None:
            self.failures.append({"args": " ".join(args), "reason": reason,
                                  "stderr": run["err"].decode(errors="replace")[-400:]})
        return points


def stats_line(err: bytes) -> dict:
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith("perfbench-stats "):
            return json.loads(line[len("perfbench-stats "):])
    return {}


def run_pass(invocations, rng, tally: Tally, oracle: dict, mode: str | None = None) -> dict:
    order = list(invocations)
    rng.shuffle(order)
    wall = rss = 0.0
    points = 0
    traces = []
    refs = reference_loops()
    for args in order:
        run = spawn(cli_argv(args, mode))
        refs += reference_loops()
        wall += run["wall_s"]
        rss = max(rss, run["rss_mb"])
        points += tally.judge(args, run, oracle)
        if mode:
            traces.append(stats_line(run["err"]))
    ref_s = statistics.median(refs)
    return {"wall_s": wall, "ref_s": ref_s, "wall_ref": wall / ref_s, "points": points,
            "peak_rss_mb": rss, "traces": traces}


def measure_setup(tally: Tally) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        run = spawn(cli_argv(SETUP_ARGS))
        tally.attempted += 1
        if run["rc"] != 0 or not run["out"].startswith(b"usage: quasih"):
            tally.failures.append({"args": "--help", "reason": f"exit code {run['rc']} "
                                   "or output not the usage text",
                                   "stderr": run["err"].decode(errors="replace")[-400:]})
        times.append(run["wall_s"])
    return statistics.median(times)


def fits(done: int, start: float, seconds: float) -> bool:
    """Whether one more pass, as long as the mean so far, ends within seconds."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def end_to_end(invocations, seed, seconds, tally, oracle) -> tuple[dict, list]:
    setup_s = measure_setup(tally)
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(len(passes), start, seconds):
        passes.append(run_pass(invocations, rng, tally, oracle))
    metrics = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(p["wall_ref"] for p in passes),
        "points_per_ref": statistics.median(p["points"] / p["wall_ref"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, [{k: v for k, v in p.items() if k != "traces"} for p in passes]


def _sum_traces(traces: list[dict]) -> tuple[dict, list[float]]:
    """Per-function sums over one traced pass, and each child's import time."""
    total: dict[str, dict] = {}
    for trace in traces:
        for name, rec in trace.get("functions", {}).items():
            acc = total.setdefault(name, {})
            for key, value in rec.items():
                acc[key] = acc.get(key, 0) + value
    return total, [t["import_s"] for t in traces if "import_s" in t]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def golden_counts(invocations, tally: Tally, oracle: dict) -> tuple[dict, bool]:
    """Two counting passes, side by side (two processes at once); the counts
    of every invocation must repeat exactly."""
    totals = {g: 0 for g in GOLDEN}
    repeat = True
    for args in invocations:
        procs = [subprocess.Popen(cli_argv(args, "golden"), cwd=ROOT, env=child_env(),
                                  stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE) for _ in range(2)]
        counts = []
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=TIMEOUT_S)
                timed_out = False
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                timed_out = True
            run = {"rc": proc.returncode, "out": out, "err": err, "timed_out": timed_out}
            tally.judge(args, run, oracle)
            counts.append(stats_line(err).get("counts"))
        if counts[0] is None or counts[0] != counts[1]:
            repeat = False
            tally.failures.append({"args": " ".join(args), "stderr": "",
                                   "reason": f"golden counts differ: {counts}"})
            continue
        for g in GOLDEN:
            totals[g] += counts[0][g]
    return totals, repeat


def per_layer(invocations, seed, seconds, tally, oracle) -> tuple[dict, list]:
    rng = random.Random(seed)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or fits(len(traced), start, seconds):
        plain.append(run_pass(invocations, rng, tally, oracle))
        traced.append(run_pass(invocations, rng, tally, oracle, mode="layers"))
    sums = [_sum_traces(p["traces"]) for p in traced]
    funcs, _ = sums[0]
    imports = [s for _, pass_imports in sums for s in pass_imports]

    def rec(name: str) -> dict:
        return funcs.get(name, {})

    def self_s(name: str) -> float:
        return statistics.median(s[0].get(name, {}).get("self_s", 0.0) for s in sums)

    metrics: dict[str, float] = {}
    for fn in TIMED:
        metrics[f"{fn}.self_s"] = self_s(fn)
        metrics[f"{fn}.calls"] = rec(fn).get("calls", 0)
    cache = rec("fragment.cached_fragment")
    sigma = rec("cutproject.sigma_2d")
    closed = rec("lineanalysis.line_closed_form")
    metrics.update({
        "fragment.generate.points": rec("fragment.generate").get("points", 0),
        "fragment.cached_fragment.calls": cache.get("calls", 0),
        "fragment.cached_fragment.hit_ratio": _ratio(cache.get("hits", 0), cache.get("calls", 0)),
        "affine.enumerate_generalized.rss_delta_mb":
            rec("affine.enumerate_generalized").get("rss_delta_kb", 0) / 1024.0,
        "cutproject.sigma_2d.points": sigma.get("points", 0),
        "cutproject.sigma_2d.repeat_ratio": _ratio(sigma.get("repeats", 0), sigma.get("calls", 0)),
        "lineanalysis.line_closed_form.repeat_ratio":
            _ratio(closed.get("repeats", 0), closed.get("calls", 0)),
        "serialize.bytes": sum(v.get("bytes", 0) for k, v in funcs.items()
                               if k.startswith("serialize.")),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "trace.overhead_s": statistics.median(p["wall_s"] for p in traced)
                            - statistics.median(p["wall_s"] for p in plain),
    })
    for check in CHECK_NAMES:
        metrics[f"checks.{check}.s"] = statistics.median(
            s[0].get(f"checks.{check}", {}).get("total_s", 0.0) for s in sums)
    counts, repeat = golden_counts(invocations, tally, oracle)
    for g in GOLDEN:
        metrics[f"golden.{g}.calls"] = counts[g]
    detail = {
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "golden_counts_repeat": repeat,
        "functions": funcs,
    }
    return metrics, [detail]


# ---------------------------------------------------------------- reporting


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def run_workload(invocations, seed: int, seconds: float, trace: bool,
                 oracle: dict) -> tuple[dict, dict]:
    """Result object (the contract's four keys) and a detail record."""
    env = environment(seed)
    tally = Tally()
    measure = per_layer if trace else end_to_end
    metrics, passes = measure(invocations, seed, seconds, tally, oracle)
    env["loadavg_end"] = os.getloadavg()
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    detail = {
        "env": env,
        "fail_ratio": failed / tally.attempted,
        "failures": tally.failures,
        "passes": passes,
    }
    return result, detail


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quasih" / "cli.py").is_file():
        sys.stderr.write(f"error: no quasih sources under {ROOT / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), load_oracle())
    declared = declared_metrics(bool(args.trace))
    if sorted(result["metrics"]) != sorted(declared):
        sys.stderr.write("error: measured metrics differ from BENCHMARK.json\n")
        return 2
    result["metrics"] = {name: result["metrics"][name] for name in declared}
    detail["workload"] = args.workload
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
