"""Named verification checks for the library's quantitative guarantees.

Each check recomputes one cluster of documented results at the sizes the
acceptance gate fixes, and returns a machine-readable result.  The CLI
``verify`` command runs them and exits nonzero when any fails, naming the
failing item; the test suite asserts the same facts independently.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .golden import CycloInt, GoldenInt, TAU, xi_pow
from .rootsystem import (
    AlphaVector,
    GroupId,
    H_GROUPS,
    OmegaVector,
    _alpha_numerators,
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
from .fragment import cached_fragment, check_tenfold, generate_rootsum, orbits
from .lineanalysis import (
    decompose,
    deficiencies_1d,
    levels,
    line_bruteforce,
    line_closed_form,
    min_distance_compare,
    mn_nn,
    rootsum_witnesses,
    scaling_check,
    sigma_1d,
)
from .cutproject import deficiency_rows_2d, fragment_in_window, min_distance_2d, sigma_2d
from .kernel import apply, cyclo_rows, golden_sign, pack_rows, unpack_keys


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)


_REGISTRY: dict[str, Callable[[], tuple[bool, dict]]] = {}


def _check(name: str):
    def wrap(fn):
        _REGISTRY[name] = fn
        return fn

    return wrap


def check_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_checks(only: str | None = None, coeff_bound: int = 3) -> list[CheckResult]:
    names = [only] if only else list(_REGISTRY)
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown check {unknown[0]!r}; available: {', '.join(_REGISTRY)}")
    results = []
    for name in names:
        t0 = time.perf_counter()
        try:
            passed, details = _REGISTRY[name](coeff_bound=coeff_bound)
        except Exception as exc:  # a crashed check is a failed check
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(CheckResult(name, passed, time.perf_counter() - t0, details))
    return results


def _h2(n: int):
    return cached_fragment(GroupId.H2, n)


@_check("counts")
def _counts(coeff_bound: int = 3):
    t0 = time.perf_counter()
    sizes = {n: _h2(n).size for n in (0, 1, 2)}
    elapsed = time.perf_counter() - t0
    ok = sizes == {0: 1, 1: 11, 2: 61} and elapsed < 1.0
    return ok, {"sizes": sizes, "elapsed": elapsed}


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


@_check("identities")
def _identities(coeff_bound: int = 3):
    t0 = time.perf_counter()
    pairs = {}
    ok = True
    for g in (GroupId.A2,) + H_GROUPS:
        for extended in (False, True):
            found = verify_identities(g, extended)
            key = f"{g.value}{'-extended' if extended else ''}"
            pairs[key] = [asdict(p) for p in found]
            ok = ok and all(p.holds and p.minimal for p in found)
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 1.0, {"pairs": pairs, "elapsed": elapsed}


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


@_check("cartan-tables")
def _cartan_tables(coeff_bound: int = 3):
    t0 = time.perf_counter()
    details = {}
    ok = True
    for g in H_GROUPS:
        started = time.perf_counter()
        rows = enumerate_generalized(g, coeff_bound)
        missing, extras = reference_diff(g, coeff_bound)
        details[g.value] = {
            "table_rows": len(reference_table(g)),
            "enumerated": len(rows),
            "psd": len(rows),
            "missing": [list(r) for r in missing],
            "extras": len(extras),
            "elapsed": time.perf_counter() - started,
        }
        ok = ok and not missing
    details["elapsed"] = time.perf_counter() - t0
    ok = ok and details["h4"]["elapsed"] < 60.0
    return ok, details


@_check("line")
def _line(coeff_bound: int = 3):
    t0 = time.perf_counter()
    level2 = set(levels(2)[2][1])
    expect2 = {
        GoldenInt(2), GoldenInt(-2), TAU, -TAU, TAU.conj(), -TAU.conj(),
    }
    equal = all(
        np.array_equal(line_closed_form(n), line_bruteforce(n)) for n in range(9)
    )
    elapsed = time.perf_counter() - t0
    return level2 == expect2 and equal and elapsed < 10.0, {
        "level2": sorted(str(v) for v in level2),
        "closed_equals_brute_n_le_8": equal,
        "elapsed": elapsed,
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


@_check("oracle")
def _oracle(coeff_bound: int = 3):
    t0 = time.perf_counter()
    mismatch = []
    for g, nmax in ((GroupId.H2, 4), (GroupId.H3, 3), (GroupId.H4, 2)):
        for n in range(nmax + 1):
            if not np.array_equal(cached_fragment(g, n).keys, generate_rootsum(g, n).keys):
                mismatch.append((g.value, n))
    elapsed = time.perf_counter() - t0
    return not mismatch and elapsed < 120.0, {"mismatch": mismatch, "elapsed": elapsed}


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
        witnesses = rootsum_witnesses(n)
        for point, beta in witnesses.items():
            d = decompose(point, n, beta)
            rebuilt = (CycloInt.from_golden(d.y) + xi_pow(1) * d.z) * xi_pow(d.sector)
            if rebuilt != point or d.cost_y > n or d.cost_z > n:
                return False, {"failed_at": (n, str(point))}
            checked += 1
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
    semilinear = True
    for _ in range(1000):
        a = GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50))
        x = CycloInt(
            GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50)),
            GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50)),
        )
        y = CycloInt(
            GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50)),
            GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50)),
        )
        if (x * a + y).star() != x.star() * a.conj() + y.star():
            semilinear = False
            break
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
    # an alpha coordinate is (a + b*tau) / N(det A): an integer exactly when
    # b = 0 and N(det A) divides a
    forms, norm = _alpha_numerators(GroupId.A2)
    ok = True
    sizes = {}
    for n in range(6):
        f = cached_fragment(GroupId.A2, n)
        sizes[n] = f.size
        nums = apply(forms, f.rows())
        ok = ok and bool((nums[:, 0::2] % norm == 0).all() and (nums[:, 1::2] == 0).all())
    return ok, {"sizes": sizes}
