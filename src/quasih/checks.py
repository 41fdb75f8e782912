"""Named verification checks for the library's quantitative guarantees.

Each check recomputes one cluster of documented results at the sizes the
acceptance gate fixes, and returns a machine-readable result.  The CLI
``verify`` command runs them and exits nonzero when any fails, naming the
failing item; the test suite asserts the same facts independently.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from dataclasses import asdict
from typing import Callable

import numpy as np

from .golden import CycloInt, GoldenInt, TAU, cyclo_str, xi_pow
from .rootsystem import (
    AlphaVector,
    GroupId,
    H_GROUPS,
    OmegaVector,
    cartan,
    cyclo_from_omega,
    omega_from_alpha,
    roots_omega,
)
from .affine import (
    reference_diff,
    reference_table,
    enumerate_generalized,
    extended_cartan,
    operators,
    verify_conditions,
    verify_identities,
)
from .fragment import _XI_ROTATION, cached_fragment, check_tenfold, generate_rootsum, orbits
from .lineanalysis import (
    deficiencies_1d,
    levels,
    line_bruteforce,
    line_closed_form,
    min_distance_compare,
    mn_nn,
    scaling_check,
    sigma_1d,
    two_line_split,
)
from .cutproject import deficiency_rows_2d, fragment_in_window, min_distance_2d, sigma_2d
from .kernel import alpha_rows, apply, cyclo_rows, golden_sign, pack_rows, unpack_keys


_REGISTRY: dict[str, Callable[[], tuple[bool, dict]]] = {}
_LIMITS: dict[str, float] = {}  # wall seconds at which a check fails


def _check(name: str, limit: float = float("inf")):
    def wrap(fn):
        _REGISTRY[name] = fn
        _LIMITS[name] = limit
        return fn

    return wrap


def check_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


# The registry from this check on runs in a forked child while the parent
# runs the checks before it: about half the in-process time on each side,
# and cartan-tables stays with conditions, whose enumeration it reuses.
# Forking makes the child the longer side: it starts with cold caches, so
# min-distance rebuilds the H2 fragments and sigma_2d sets that
# cutproject-2d leaves in the parent's, and doubles (0.05 -> 0.10 s on a
# shared 2-core host, where the head takes 0.15 s and the tail 0.13 s in one
# process, but the forked tail 0.15-0.25 s).  A later split does not pay:
# over 30 alternating cold runs, splitting at star-map took about 0.02 s off
# the median, within the spread of the runs, and added 0.4 MB to the peak
# RSS (decompose and scaling then run in the parent, whose peak is verify's),
# and splitting at min-distance was slower.  The split is fixed so that each
# process does the same work on every run.
_CHILD_FROM = "decompose"


def run_checks(only: str | None = None, coeff_bound: int = 3) -> list[dict]:
    """Run one check, or the whole registry in registry order, and return
    their report entries, ``{"name", "passed", "elapsed", "details"}``.

    With ``fork`` and at least two usable CPUs the whole registry runs in
    two processes: the parent runs the head, the checks before
    ``_CHILD_FROM``, while a forked child runs the tail and pickles all its
    entries down a pipe as one message.  If that message is missing or torn
    (the child exited, crashed or was killed at any point), the parent runs
    the whole tail itself after the head, so the entries are always the
    one-process ones.  Each ``elapsed`` is the wall time in seconds,
    rounded to 3 places, of its check in the process that ran it; a check
    fails when that time, unrounded, reaches its ``_LIMITS`` entry."""
    names = [only] if only else list(_REGISTRY)
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown check {unknown[0]!r}; available: {', '.join(_REGISTRY)}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if only or not hasattr(os, "fork") or cpus < 2:
        return [_run(name, coeff_bound) for name in names]
    # The one other thread after ``import numpy`` is the OpenBLAS pool, whose
    # fork handler stops it before the fork.
    split = names.index(_CHILD_FROM)
    head, tail = names[:split], names[split:]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes: run everything here
        os.close(read_fd)
        os.close(write_fd)
        return [_run(name, coeff_bound) for name in names]
    if pid == 0:
        # leave only through os._exit: no atexit hooks, and no flush of the
        # stdout buffer that the parent owns
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump([_run(name, coeff_bound) for name in tail], pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            entries = [_run(name, coeff_bound) for name in head]
            try:
                return entries + pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child is gone
                return entries + [_run(name, coeff_bound) for name in tail]
    except BaseException:
        import signal  # here, so that start-up imports nothing new

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def _run(name: str, coeff_bound: int) -> dict:
    t0 = time.perf_counter()
    try:
        passed, details = _REGISTRY[name](coeff_bound=coeff_bound)
    except Exception as exc:  # a crashed check is a failed check
        passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - t0
    passed = passed and elapsed < _LIMITS[name]
    return {"name": name, "passed": passed, "elapsed": round(elapsed, 3), "details": details}


def _h2(n: int):
    return cached_fragment(GroupId.H2, n)


@_check("counts", limit=1.0)
def _counts(coeff_bound: int = 3):
    sizes = {n: _h2(n).size for n in (0, 1, 2)}
    return sizes == {0: 1, 1: 11, 2: 61}, {"sizes": sizes}


# The reference word table for the eleven points of the n = 1 fragment:
# words apply right to left, T first; targets are alpha coordinates.
# The table's reflection labels carry the H2 diagram flip of the operator
# convention used here (its "r1" is our r2 and vice versa).  Both readings
# are asserted: words evaluate to the tabulated roots after the
# relabeling, and raw evaluation hits exactly the coordinate-swapped
# roots.
WORD_TABLE: tuple[tuple[str, tuple[GoldenInt, GoldenInt]], ...] = (
    ("T", (TAU, TAU)),
    ("r1 T", (TAU, GoldenInt(1))),
    ("r2 T", (GoldenInt(1), TAU)),
    ("r1 r2 T", (GoldenInt(1), GoldenInt(0))),
    ("r2 r1 T", (GoldenInt(0), GoldenInt(1))),
    ("r1 r2 r1 T", (GoldenInt(0), GoldenInt(-1))),
    ("r2 r1 r2 T", (GoldenInt(-1), GoldenInt(0))),
    ("r2 r1 r2 r1 T", (-TAU, GoldenInt(-1))),
    ("r1 r2 r1 r2 T", (GoldenInt(-1), -TAU)),
    ("r1 r2 r1 r2 r1 T", (-TAU, -TAU)),
    ("r2 r1 r2 r1 r2 T", (-TAU, -TAU)),
)


def evaluate_word(word: str, flip: bool = False) -> OmegaVector:
    """Apply an H2 reflection/translation word to the origin, rightmost first.

    ``flip`` relabels r1 <-> r2 (the H2 diagram automorphism)."""
    ops = operators(GroupId.H2)
    v = OmegaVector.zero(GroupId.H2)
    for token in reversed(word.split()):
        if token == "T":
            v = ops.translation.apply(v)
        elif token.startswith("r"):
            index = int(token[1:]) - 1
            if flip:
                index = 1 - index
            v = ops.reflections[index].apply(v)
        else:
            raise ValueError(f"bad word token {token!r}")
    return v


@_check("word-table")
def _word_table(coeff_bound: int = 3):
    mismatches = []
    produced = {OmegaVector.zero(GroupId.H2)}
    for word, alpha in WORD_TABLE:
        flipped_eval = evaluate_word(word, flip=True)
        raw_eval = evaluate_word(word)
        tabulated = omega_from_alpha(AlphaVector(GroupId.H2, alpha))
        swapped = omega_from_alpha(AlphaVector(GroupId.H2, alpha[::-1]))
        if flipped_eval != tabulated or raw_eval != swapped:
            mismatches.append(word)
        produced.add(raw_eval)
    last = evaluate_word(WORD_TABLE[-1][0])
    same_last_two = last == evaluate_word(WORD_TABLE[-2][0])
    q1 = set(map(tuple, _h2(1).rows().tolist()))
    roots_set = {r.flat() for r in roots_omega(GroupId.H2)}
    ok = (
        not mismatches
        and same_last_two
        and {p.flat() for p in produced} == q1
        and q1 == roots_set | {OmegaVector.zero(GroupId.H2).flat()}
    )
    return ok, {"mismatched_words": mismatches, "points": len(produced)}


@_check("orbits")
def _orbits(coeff_bound: int = 3):
    dominant, sizes = orbits(_h2(2))

    def of_size(size):
        return {OmegaVector.from_flat(GroupId.H2, d) for d in dominant[sizes == size].tolist()}

    def alpha(c1, c2):
        return omega_from_alpha(AlphaVector.make(GroupId.H2, (c1, c2)))

    tau2 = TAU * TAU
    expect_10 = {
        alpha(2 * TAU, 2 * TAU),
        alpha(tau2, tau2),
        alpha(TAU, TAU),
        alpha(1, 1),
    }
    expect_5 = {
        alpha(GoldenInt(2), TAU),
        alpha(TAU, GoldenInt(2)),
        alpha(tau2, 2 * TAU),
        alpha(2 * TAU, tau2),
    }
    sizes_sum = int(sizes.sum())
    ok = (
        of_size(10) == expect_10
        and of_size(5) == expect_5
        and of_size(1) == {OmegaVector.zero(GroupId.H2)}
        and sizes_sum == 61
        and len(sizes) == 9
    )
    return ok, {"orbit_sizes": sorted(sizes.tolist()), "total": sizes_sum}


@_check("identities", limit=1.0)
def _identities(coeff_bound: int = 3):
    pairs = {}
    ok = True
    for g in (GroupId.A2,) + H_GROUPS:
        for extended in (False, True):
            found = verify_identities(g, extended)
            key = f"{g.value}{'-extended' if extended else ''}"
            pairs[key] = [asdict(p) for p in found]
            ok = ok and all(p.holds and p.minimal for p in found)
    return ok, {"pairs": pairs}


@_check("conditions")
def _conditions(coeff_bound: int = 3):
    results = {}
    ok = True
    for g in (GroupId.A2,) + H_GROUPS:
        rep = verify_conditions(extended_cartan(g))
        results[g.value] = rep.all_ok
        ok = ok and rep.all_ok
    # the non-extended matrix must fail exactly the determinant condition
    plain = verify_conditions(cartan(GroupId.H2))
    ok = ok and not plain.det_zero_ok and plain.diagonal_ok and plain.symmetric_ok
    unique = {}
    for g in H_GROUPS:
        rows = enumerate_generalized(g, coeff_bound)
        nonpos = rows[(golden_sign(rows[:, 0::2], rows[:, 1::2]) <= 0).all(axis=1)]
        unique[g.value] = nonpos.tolist() == [list(OmegaVector(g, extended_cartan(g)[0][1:]).flat())]
        ok = ok and unique[g.value]
    return ok, {"extended_pass": results, "unique_nonpositive": unique}


@_check("cartan-tables", limit=60.0)
def _cartan_tables(coeff_bound: int = 3):
    details = {}
    ok = True
    for g in H_GROUPS:
        rows = enumerate_generalized(g, coeff_bound)
        missing, extras = reference_diff(g, coeff_bound)
        details[g.value] = {
            "table_rows": len(reference_table(g)),
            "enumerated": len(rows),
            "psd": len(rows),
            "missing": [list(r) for r in missing],
            "extras": len(extras),
        }
        ok = ok and not missing
    return ok, details


@_check("line", limit=10.0)
def _line(coeff_bound: int = 3):
    level2 = set(levels(2)[2][1])
    expect2 = {
        GoldenInt(2), GoldenInt(-2), TAU, -TAU, TAU.conj(), -TAU.conj(),
    }
    equal = all(
        np.array_equal(line_closed_form(n), line_bruteforce(n)) for n in range(9)
    )
    return level2 == expect2 and equal, {
        "level2": sorted(str(v) for v in level2),
        "closed_equals_brute_n_le_8": equal,
    }


@_check("cutproject-1d")
def _cut1d(coeff_bound: int = 3):
    coincide = all(np.array_equal(sigma_1d(n), line_closed_form(n)) for n in (1, 2))
    d3 = deficiencies_1d(3).tolist()
    has_example = [-1, 2] in d3 and [1, -2] in d3
    nonempty = all(len(deficiencies_1d(n)) for n in range(3, 13))
    empty = len(deficiencies_1d(1)) == 0 and len(deficiencies_1d(2)) == 0
    ok = coincide and has_example and nonempty and empty
    return ok, {
        "coincide_n12": coincide,
        "deficiency_example": has_example,
        "nonempty_3_to_12": nonempty,
    }


@_check("mn-nn")
def _mn_nn(coeff_bound: int = 3):
    ok = mn_nn(3) == (1, 2)
    strict = True
    for n in range(3, 21):
        m, nn = mn_nn(n)
        if m != (n // 2 if n % 2 == 0 else (n - 1) // 2) or m >= nn:
            strict = False
    return ok and strict, {"m3_n3": mn_nn(3), "m_lt_n_3_to_20": strict}


@_check("oracle", limit=120.0)
def _oracle(coeff_bound: int = 3):
    mismatch = []
    for g, nmax in ((GroupId.H2, 4), (GroupId.H3, 3), (GroupId.H4, 2)):
        for n in range(nmax + 1):
            if not np.array_equal(cached_fragment(g, n).keys, generate_rootsum(g, n).keys):
                mismatch.append((g.value, n))
    return not mismatch, {"mismatch": mismatch}


@_check("cutproject-2d")
def _cut2d(coeff_bound: int = 3):
    inclusion = all(fragment_in_window(_h2(n)) for n in range(1, 6))
    defic = {n: len(deficiency_rows_2d(n)) for n in range(1, 6)}
    empties = defic[1] == 0 and defic[2] == 0
    nonempty = all(defic[n] > 0 for n in (3, 4, 5))
    equal12 = all(
        np.array_equal(sigma_2d(n), np.sort(pack_rows(cyclo_rows(_h2(n).rows()))))
        for n in (1, 2)
    )
    ok = inclusion and empties and nonempty and equal12
    return ok, {
        "inclusion_n_le_5": inclusion,
        "deficiency_counts": defic,
        "sigma_equals_fragment_n12": equal12,
    }


@_check("decompose")
def _decompose(coeff_bound: int = 3):
    checked = 0
    for n in range(5):
        points, sector, y, z, level_y, level_z = two_line_split(n)
        rebuilt = np.hstack([y, z])  # y + z*xi as (p.a, p.b, q.a, q.b) rows
        for s in range(9):  # times xi^sector, one compiled rotation by xi at a time
            rebuilt[sector > s] = apply(_XI_ROTATION, rebuilt[sector > s])
        bad = (rebuilt != points).any(axis=1) | (sector < 0) | (sector > 9) | (level_y > n) | (level_z > n)
        if bad.any():
            return False, {"failed_at": (n, cyclo_str(*points[bad.argmax()].tolist()))}
        checked += len(points)
    return True, {"points_checked": checked}


@_check("scaling")
def _scaling(coeff_bound: int = 3):
    ok = all(scaling_check(n) for n in range(11))
    return ok, {"n_max": 10}


@_check("star-map")
def _star(coeff_bound: int = 3):
    root_images = {cyclo_from_omega(v).star() for v in roots_omega(GroupId.H2)}
    root_set = {cyclo_from_omega(v) for v in roots_omega(GroupId.H2)}
    delta_fixed = root_images == root_set
    anchors = xi_pow(0).star() == xi_pow(0) and xi_pow(4).star() == xi_pow(8)
    rng = random.Random(192837)

    def draw():
        return GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50))

    semilinear = all(  # a, x, y drawn in that order, each coefficient in turn
        (x * a + y).star() == x.star() * a.conj() + y.star()
        for a, x, y in ((draw(), CycloInt(draw(), draw()), CycloInt(draw(), draw())) for _ in range(1000))
    )
    ok = delta_fixed and anchors and semilinear
    return ok, {"delta2_fixed": delta_fixed, "anchors": anchors, "semilinear": semilinear}


@_check("min-distance")
def _min_distance(coeff_bound: int = 3):
    ok_1d = all(min_distance_compare(n)[2] for n in range(1, 11))
    ok_2d = True
    details_2d = {}
    for n in range(1, 6):
        exact_frag, d_frag = min_distance_2d(cyclo_rows(_h2(n).rows()))
        exact_sig, d_sig = min_distance_2d(unpack_keys(sigma_2d(n), 4))
        details_2d[n] = (d_frag, d_sig)
        if (exact_frag - exact_sig).sign() < 0:
            ok_2d = False
    return ok_1d and ok_2d, {"ok_1d": ok_1d, "min_dists_2d": details_2d}


@_check("tenfold")
def _tenfold(coeff_bound: int = 3):
    from .serialize import fragment_svg

    symmetric = all(check_tenfold(_h2(n)) for n in range(1, 7))
    svg_counts_ok = all(fragment_svg(_h2(n)).count("<circle") == _h2(n).size for n in range(1, 7))
    return symmetric and svg_counts_ok, {
        "symmetric_n_le_6": symmetric,
        "svg_counts_ok": svg_counts_ok,
    }


@_check("a2-lattice")
def _a2(coeff_bound: int = 3):
    # alpha_rows raises on a row outside the root lattice; inside it, an
    # alpha coordinate a + b*tau is an integer exactly when b = 0
    ok = True
    sizes = {}
    for n in range(6):
        f = cached_fragment(GroupId.A2, n)
        sizes[n] = f.size
        ok = ok and not alpha_rows(GroupId.A2, f.rows())[:, 1::2].any()
    return ok, {"sizes": sizes}
