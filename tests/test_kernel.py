"""The int64 Z[tau] kernel against the scalar GoldenInt/GoldenRational classes."""

import ast
import itertools
import types
from collections import Counter
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasih
from quasih import fragment, golden, kernel
from quasih.affine import operators
from quasih.fragment import (
    Fragment,
    ResourceLimitError,
    _orbit_sizes,
    check_tenfold,
    generate,
    generate_rootsum,
    orbits,
    shells,
)
from quasih.golden import GoldenInt, GoldenRational
from quasih.rootsystem import (
    _MODELS,
    AlphaVector,
    GroupId,
    OmegaVector,
    alpha_from_omega,
    cartan,
    cartan_inverse,
    cartesian,
    cyclo_from_omega,
    golden_adjugate,
    norm_sq,
    omega_from_alpha,
    orbit_of,
    to_dominant,
)
import oracles
from oracles import cyclo_points

GROUPS = tuple(GroupId)
SIGN_LIMIT = (1 << 29) - 1


def _fibonacci(count):
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out


def _rows(group, bound):
    cols = 2 * group.rank
    coeff = st.integers(-bound, bound)
    return st.lists(st.lists(coeff, min_size=cols, max_size=cols), min_size=1, max_size=30)


@st.composite
def group_rows(draw, bound=6, groups=GROUPS):
    group = draw(st.sampled_from(groups))
    return group, np.array(draw(_rows(group, bound)), dtype=np.int64)


class TestGoldenSign:
    @given(st.lists(st.tuples(st.integers(-SIGN_LIMIT, SIGN_LIMIT),
                              st.integers(-SIGN_LIMIT, SIGN_LIMIT)), min_size=1))
    def test_matches_scalar(self, pairs):
        a, b = np.array(pairs, dtype=np.int64).T
        expect = [GoldenInt(int(x), int(y)).sign() for x, y in pairs]
        assert kernel.golden_sign(a, b).tolist() == expect

    def test_near_zero_fibonacci_pairs(self):
        # F(m+1) - F(m)*tau -> 0 with alternating sign
        fib = [f for f in _fibonacci(60) if f <= SIGN_LIMIT]
        pairs = []
        for lo, hi in zip(fib, fib[1:]):
            pairs += [(hi, -lo), (-hi, lo), (lo, -hi), (hi - 1, -lo), (hi + 1, -lo)]
        a, b = np.array(pairs, dtype=np.int64).T
        expect = [GoldenInt(x, y).sign() for x, y in pairs]
        assert kernel.golden_sign(a, b).tolist() == expect

    def test_out_of_range_raises(self):
        with pytest.raises(ResourceLimitError):
            kernel.golden_sign(np.array([1 << 29]), np.array([0]))


class TestPackedKeys:
    @given(group_rows(bound=127))
    def test_key_order_is_row_order(self, case):
        _, rows = case
        keys = kernel.pack_rows(rows)
        assert sorted(map(tuple, rows.tolist())) == [
            tuple(r) for r in rows[np.argsort(keys, kind="stable")].tolist()
        ]
        assert (kernel.unpack_keys(keys, rows.shape[1]) == rows).all()

    def test_column_width_bound_raises(self):
        rows = np.zeros((2, 8), dtype=np.int64)  # 8 columns: 8 bits each
        rows[1, 3] = 128
        with pytest.raises(ResourceLimitError, match="8-bit packed-key range"):
            kernel.pack_rows(rows)
        rows[1, 3] = -128
        assert (kernel.unpack_keys(kernel.pack_rows(rows), 8) == rows).all()

    def test_operator_image_bound_raises(self):
        op = operators(GroupId.H2).reflections[0].compiled()
        with pytest.raises(ResourceLimitError):
            kernel.apply(op, np.array([[1 << 61, 0, 0, 0]], dtype=np.int64))


_KEY = st.integers(0, (1 << 64) - 1)


class TestUniqueKeys:
    @given(st.one_of(
        st.lists(_KEY, max_size=40),
        st.lists(st.integers((1 << 63), (1 << 64) - 1), max_size=40),  # top bit set
        st.lists(st.integers(0, 3), max_size=40),  # many repeats
        st.builds(lambda key, count: [key] * count, _KEY, st.integers(1, 9)),  # all equal
    ))
    def test_equals_np_unique(self, values):
        keys = np.array(values, dtype=np.uint64)
        got = kernel.unique_keys(keys)
        assert got.dtype == np.uint64
        assert got.tolist() == np.unique(keys).tolist()

    @pytest.mark.parametrize("values", ([], [7], [1 << 63] * 3, [(1 << 64) - 1, 0, (1 << 63)]))
    def test_edge_cases(self, values):
        keys = np.array(values, dtype=np.uint64)
        assert kernel.unique_keys(keys).tolist() == sorted(set(values))


def _hash_path_calls(source: str) -> list[int]:
    """Lines of ``np.union1d`` and of ``np.unique(...)`` calls without a
    ``return_*`` argument, the calls that take numpy's hash path."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "union1d":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and not any((kw.arg or "").startswith("return_") for kw in node.keywords)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def _membership_reads(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every ``np.isin``, in line order."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "isin"
                    and getattr(child.value, "id", None) == "np"):
                found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda hit: hit[1])


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds and no expression of the
    module reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unreferenced_definitions(sources: dict[str, str], kept: set[str]) -> list[tuple[str, str]]:
    """(file, name) of every module-level function or class of ``sources``
    that no name or attribute in any of them reads, apart from ``kept``
    and the checks registered with ``@_check``."""
    defined, read = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
                for d in node.decorator_list
            ):
                defined.append((path, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    read |= kept
    return sorted((path, name) for path, name in defined if name not in read)


def _traced_names() -> set[str]:
    """The functions in ``LAYERS`` and the classes in ``COUNTED`` of
    ``perfbench/tracer.py``, which looks them up by name."""
    tracer = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("LAYERS", "COUNTED")
    }
    return {f for names in tables["LAYERS"].values() for f in names} | {
        cls for cls, _ in tables["COUNTED"].values()
    }


# The one ``np.isin`` that stays: the root-sum oracle shares no membership
# code with the word BFS.
_ALLOWED_ISIN = {("kernel.py", "root_sums")}


class TestSourceHasNoHashUnique:
    def test_detector_flags_both_calls(self):
        source = "np.union1d(a, b)\nnp.unique(x)\nnp.unique(x, return_index=True)\n"
        assert _hash_path_calls(source) == [1, 2]

    def test_src_is_clean(self):
        package = Path(kernel.__file__).parent
        found = {
            path.name: lines
            for path in sorted(package.glob("*.py"))
            if (lines := _hash_path_calls(path.read_text()))
        }
        assert found == {}, "use kernel.unique_keys: sort-based, not hashed"

    def test_membership_detector_flags_isin_calls(self):
        source = "def f(x, keys):\n    np.isin(x, keys)\n\nkernel.isin_sorted(a, b)\nnp.isin(a, b)\n"
        assert _membership_reads(source) == [("f", 2), (None, 5)]

    def test_src_has_one_membership_test(self):
        package = Path(kernel.__file__).parent
        found = [
            (path.name, func, line)
            for path in sorted(package.glob("*.py"))
            for func, line in _membership_reads(path.read_text())
            if (path.name, func) not in _ALLOWED_ISIN
        ]
        assert found == [], "use kernel.isin_sorted on a sorted table"

    def test_unused_import_detector(self):
        source = (
            "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
            "from .golden import PHI, compile_forms\n\ndef f(x: np.ndarray):\n    return os.sep, PHI\n"
        )
        assert _unused_imports(source) == [(4, "compile_forms")]

    def test_src_imports_only_what_it_uses(self):
        # ``__init__`` imports to re-export
        package = Path(kernel.__file__).parent
        found = {
            path.name: names
            for path in sorted(package.glob("*.py"))
            if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
        }
        assert found == {}, "import a name from the module that defines it, where it is used"

    def test_unreferenced_definition_detector(self):
        sources = {
            "a.py": "def used():\n    pass\n\ndef orphan():\n    used()\n\nclass Kept:\n    pass\n",
            "b.py": "import a\n\n@_check('x')\ndef _x():\n    return a.used\n\ndef _helper():\n    pass\n",
        }
        assert _unreferenced_definitions(sources, {"Kept"}) == [("a.py", "orphan"), ("b.py", "_helper")]

    def test_src_holds_no_test_only_code(self):
        # ``__init__`` re-exports every public name, so it reads none
        package = Path(kernel.__file__).parent
        sources = {
            path.name: path.read_text() for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
        }
        found = _unreferenced_definitions(sources, _traced_names())
        assert found == [], "move code that only tests call to tests/oracles.py"


class TestPackageNamespace:
    def test_all_names_every_public_binding(self):
        # a name removed from the package but left in ``__all__`` (or the
        # reverse) shows as a difference
        bound = {
            name
            for name, value in vars(quasih).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert set(quasih.__all__) == bound
        assert len(quasih.__all__) == len(bound)

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from quasih import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(quasih.__all__)


# F(k+1) - F(k)*tau: values near 0 with alternating sign, about 1e-6 apart
_NEAR_TIES = [(hi, -lo) for lo, hi in zip(_fibonacci(30), _fibonacci(31)[1:])]


class TestExactArgmin:
    @given(st.lists(st.one_of(st.tuples(st.integers(-500, 500), st.integers(-500, 500)),
                              st.sampled_from(_NEAR_TIES)), min_size=1, max_size=40),
           st.sampled_from((float("nan"), 100.0, -100.0)))
    def test_exact_under_a_wrong_float_proposal(self, pairs, phi):
        # the float argmin only proposes: with nan or a wrong tau the exact
        # signs still end at the least value
        a, b = np.array(pairs, dtype=np.int64).T
        with mock.patch.object(kernel, "PHI", phi):
            best = kernel.exact_argmin(a, b)
        assert GoldenInt(int(a[best]), int(b[best])) == min(GoldenInt(x, y) for x, y in pairs)


class TestClosure:
    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("n", range(4))
    def test_equals_rootsum_oracle(self, group, n):
        word = generate(group, n)
        assert np.array_equal(word.rows(), generate_rootsum(group, n).rows())


class TestIsinSorted:
    @given(st.lists(_KEY, max_size=30), st.lists(_KEY, min_size=1, max_size=30),
           st.lists(st.sampled_from([0, 1, (1 << 64) - 2, (1 << 64) - 1]), max_size=4))
    def test_equals_np_isin(self, keys, table, ends):
        keys = np.array(keys + ends + table[:3], dtype=np.uint64)
        table = kernel.unique_keys(np.array(table + ends[:2], dtype=np.uint64))
        assert kernel.isin_sorted(keys, table).tolist() == np.isin(keys, table).tolist()


def _closure_reference(seeds, gens, cols):
    """The closure with ``np.isin`` and ``np.union1d`` on whole frontiers."""
    seen = frontier = seeds
    while frontier.size:
        rows = kernel.unpack_keys(frontier, cols)
        images = np.unique(np.concatenate([kernel.pack_rows(kernel.apply(g, rows)) for g in gens]))
        frontier = images[~np.isin(images, seen)]
        seen = np.union1d(seen, frontier)
    return seen


@st.composite
def closure_cases(draw):
    """Seeds over the whole packed range, its ends included, and involutions
    that keep it: column swaps and the flips x -> -1 - x, which exchange the
    least and the greatest column value."""
    cols = draw(st.sampled_from((2, 4, 8)))
    half = 1 << (64 // cols - 1)
    value = st.one_of(st.sampled_from((-half, -half + 1, half - 2, half - 1)),
                      st.integers(-half, half - 1))
    rows = draw(st.lists(st.lists(value, min_size=cols, max_size=cols), min_size=1, max_size=20))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        m, off = np.eye(cols, dtype=np.int64), np.zeros(cols, dtype=np.int64)
        if i == j:
            m[i, i], off[i] = -1, -1
        else:
            m[[i, j]] = m[[j, i]]
        gens.append((m, off))
    seeds = kernel.unique_keys(kernel.pack_rows(np.array(rows, dtype=np.int64)))
    return seeds, gens, cols


class TestClosureSlabs:
    @given(closure_cases(), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_equals_isin_reference(self, case, slab):
        seeds, gens, cols = case
        expect = _closure_reference(seeds, gens, cols)
        with mock.patch.object(kernel, "_SLAB", slab):  # frontiers of many slabs
            got = oracles.closure(seeds, gens, cols)
        assert got.dtype == np.uint64
        assert got.tolist() == expect.tolist()

    def test_h2_fragments_equal_with_small_slabs(self):
        expect = [generate(GroupId.H2, n).keys for n in range(6)]
        with mock.patch.object(kernel, "_SLAB", 3):
            for n, keys in enumerate(expect):
                assert np.array_equal(generate(GroupId.H2, n).keys, keys)


def _closed_reference(rows, ops):
    """Whether the set of ``rows`` holds every row's image under every
    (M, off), on Python integers."""
    present = set(map(tuple, rows))
    for m, off in ops:
        m, off = m.tolist(), off.tolist()
        for r in rows:
            image = tuple(sum(e * x for e, x in zip(row, r)) + o for row, o in zip(m, off))
            if image not in present:
                return False
    return True


def _orbits_accept(fragment):
    try:
        orbits(fragment)
    except ValueError:
        return False
    return True


_SMALL = {GroupId.A2: 3, GroupId.H2: 3, GroupId.H3: 2, GroupId.H4: 1}


class TestClosedUnder:
    """Closure under the reflections, as the ``orbits`` guard decides it
    (``kernel.orbit_keys`` of the dominant rows gives the keys back), and
    under the rotation by xi, as ``check_tenfold`` decides it (the sorted
    rotated keys equal the keys), against Python sets."""

    @given(st.sampled_from(GROUPS), st.data(), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_equals_set_reference(self, group, data, slab):
        # a fragment, whole or short of some rows, and sometimes with one
        # row moved out to the edge of the packed range (and off the H2
        # root lattice that ``cyclo_rows`` reads)
        rows = generate(group, data.draw(st.integers(0, _SMALL[group]))).rows()
        keep = data.draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=1)))
        if keep is not None:
            rows = rows[np.resize(np.array(keep), len(rows))]
        pushed = len(rows) > 0 and data.draw(st.booleans())
        if pushed:
            rows = rows.copy()
            rows[data.draw(st.integers(0, len(rows) - 1)), 0] = (1 << (64 // rows.shape[1] - 1)) - 1
            rows = kernel.unpack_keys(kernel.unique_keys(kernel.pack_rows(rows)), rows.shape[1])
        f = Fragment.from_rows(group, 0, rows)
        refl = [r.compiled() for r in operators(group).reflections]
        with mock.patch.object(kernel, "_SLAB", slab):  # keys of many slabs
            assert _orbits_accept(f) == _closed_reference(rows.tolist(), refl)
            if group is GroupId.H2 and not pushed:
                cyclo = kernel.cyclo_rows(rows).tolist()
                assert check_tenfold(f) == _closed_reference(cyclo, [fragment._XI_ROTATION])

    @pytest.mark.parametrize("slab", range(1, 6))
    def test_fragment_short_of_one_row(self, slab):
        # every row of the H2 fragment of cut-off 3 but one: the rows whose
        # images are the dropped one lie in slabs all over the keys; only
        # the origin, which every reflection and the rotation fix, may go
        f = generate(GroupId.H2, 3)
        with mock.patch.object(kernel, "_SLAB", slab):
            assert _orbits_accept(f) and check_tenfold(f)
            for drop in range(1, f.size, 7):
                short = Fragment(GroupId.H2, 3, np.delete(f.keys, drop))
                origin = not f.rows(drop, drop + 1).any()
                assert _orbits_accept(short) == origin
                assert check_tenfold(short) == origin

    @pytest.mark.parametrize("rank", (2, 4))
    def test_empty_keys_are_closed(self, rank):
        for group in (g for g in GROUPS if g.rank == rank):
            empty = Fragment(group, 0, np.zeros(0, dtype=np.uint64))
            dominant, sizes = orbits(empty)
            assert dominant.shape == (0, 2 * rank) and sizes.shape == (0,)
            if group is GroupId.H2:
                assert check_tenfold(empty) is True

    @pytest.mark.parametrize("rank", (2, 4))
    def test_image_past_the_packed_range_is_not_closed(self, rank):
        # a dominant row at the greatest packed value: some point of its
        # orbit lies past the range, so no key set holds the orbit
        for group in (g for g in GROUPS if g.rank == rank):
            cols = 2 * group.rank
            row = np.zeros((1, cols), dtype=np.int64)
            row[0, 0::2] = (1 << (64 // cols - 1)) - 1
            refl = [r.compiled() for r in operators(group).reflections]
            with pytest.raises(ResourceLimitError):
                kernel.orbit_keys(row, _orbit_sizes(group, row), refl)
            with pytest.raises(ValueError, match="closed under the reflections"):
                orbits(Fragment.from_rows(group, 0, row))


@lru_cache(maxsize=None)
def _scalar_orbit(group, row):
    """The flat rows of the scalar ``orbit_of`` of one dominant row."""
    return frozenset(v.flat() for v in orbit_of(OmegaVector.from_flat(group, row)))


_POSITIVE = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: GoldenInt(*ab).sign() > 0)


@st.composite
def dominant_seeds(draw, groups=(GroupId.A2, GroupId.H2, GroupId.H3)):
    """A group and distinct small dominant rows, each with its own zero
    pattern J: coordinate i is 0 for i in J and a small positive Z[tau]
    value otherwise."""
    group = draw(st.sampled_from(groups))
    k = group.rank
    seeds = set()
    for _ in range(draw(st.integers(1, 6))):
        mask = draw(st.integers(0, (1 << k) - 1))
        seeds.add(sum(((0, 0) if mask >> i & 1 else draw(_POSITIVE) for i in range(k)), ()))
    return group, sorted(seeds)


def _h4_face_row(mask):
    """One small dominant H4 row with zero pattern ``mask``."""
    values = ((1, 0), (0, 1), (2, -1), (-1, 2))
    return sum(((0, 0) if mask >> i & 1 else values[i] for i in range(4)), ())


def _check_orbit_keys(group, seeds):
    rows = np.array(seeds, dtype=np.int64).reshape(-1, 2 * group.rank)
    refl = [r.compiled() for r in operators(group).reflections]
    sizes = _orbit_sizes(group, rows)
    keys = kernel.orbit_keys(rows, sizes, refl)
    expect = set().union(*(_scalar_orbit(group, s) for s in seeds))
    assert (keys[1:] > keys[:-1]).all()  # sorted, and no point made twice
    assert keys.size == sizes.sum()
    assert keys.tolist() == sorted(kernel.pack_rows(np.array(sorted(expect), dtype=np.int64)).tolist())


class TestOrbitKeys:
    @given(dominant_seeds())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scalar_orbits(self, case):
        _check_orbit_keys(*case)

    @pytest.mark.parametrize("mask", range(16))
    def test_every_h4_zero_pattern(self, mask):
        _check_orbit_keys(GroupId.H4, [_h4_face_row(mask)])

    @given(st.one_of(dominant_seeds(), st.just((GroupId.H4, [_h4_face_row(m) for m in range(16)]))),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_scalar_orbits_in_small_slabs(self, case, slab):
        # slabs of at most ``slab`` seeds whose orbits start in one window of
        # 256 * slab points; at ``slab`` = 1 every seed is a slab of its own
        with mock.patch.object(kernel, "_SLAB", slab):
            _check_orbit_keys(*case)


def _scalar_root_sums(roots, n):
    """Level m of the sums of at most n roots, as sets of tuples."""
    origin = (0,) * len(roots[0])
    seen, levels = {origin}, [{origin}]
    for _ in range(n):
        new = {tuple(x + y for x, y in zip(p, r)) for p in levels[-1] for r in roots} - seen
        seen |= new
        levels.append(new)
    return levels


@st.composite
def root_rows(draw):
    cols = draw(st.sampled_from((2, 4, 6, 8)))
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return np.array(draw(st.lists(row, min_size=1, max_size=6)), dtype=np.int64)


class TestRootSums:
    @given(root_rows(), st.integers(0, 4))
    @settings(max_examples=80)
    def test_levels_match_scalar_bfs(self, roots, n):
        cols = roots.shape[1]
        levels = kernel.root_sums(roots, n, cap=10_000)
        expect = _scalar_root_sums([tuple(r) for r in roots.tolist()], n)
        # the kernel stops at an empty level; the scalar BFS repeats it
        assert all(not want for want in expect[len(levels):])
        for (keys, _, _), want in zip(levels, expect):
            assert (np.diff(keys.astype(object)) > 0).all()
            assert {tuple(r) for r in kernel.unpack_keys(keys, cols).tolist()} == want
        for (prev, _, _), (keys, parent, root) in zip(levels, levels[1:]):
            rows = kernel.unpack_keys(keys, cols)
            assert (rows == kernel.unpack_keys(prev, cols)[parent] + roots[root]).all()

    def test_bound_refused_before_any_allocation(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("root_sums allocated past its bound")

        roots = np.eye(8, dtype=np.int64)[:1]  # 8 columns: keys hold [-128, 128)
        monkeypatch.setattr(kernel, "pack_rows", no_work)
        for n in (128, 10**12):
            with pytest.raises(ResourceLimitError, match="root sums: coefficient bound"):
                kernel.root_sums(roots, n, cap=10_000)

    def test_bound_admits_the_last_packed_value(self):
        roots = np.eye(8, dtype=np.int64)[:1]
        keys = kernel.root_sums(roots, 127, cap=10_000)[-1][0]
        assert kernel.unpack_keys(keys, 8).tolist() == [[127, 0, 0, 0, 0, 0, 0, 0]]

    def test_cap_checked_after_every_level(self):
        # H2 root sums: 1, 11 and 61 points up to levels 0, 1 and 2
        assert generate_rootsum(GroupId.H2, 1, cap=11).size == 11
        with pytest.raises(ResourceLimitError, match=r"^fragment exceeded cap 10$"):
            generate_rootsum(GroupId.H2, 1, cap=10)
        with pytest.raises(ResourceLimitError, match=r"^fragment exceeded cap 60$"):
            generate_rootsum(GroupId.H2, 5, cap=60)

    def test_cap_counts_the_origin(self):
        # the origin alone is one point, as ``generate`` counts it
        with pytest.raises(ResourceLimitError, match=r"^fragment exceeded cap 0$"):
            generate_rootsum(GroupId.H2, 0, cap=0)
        assert generate_rootsum(GroupId.H2, 0, cap=1).size == 1


class TestDominantSweep:
    @given(group_rows())
    @settings(max_examples=60)
    def test_matches_to_dominant(self, case):
        group, rows = case
        refl = [r.compiled() for r in operators(group).reflections]
        swept = kernel.dominant_rows(rows, refl)
        for row, dom in zip(rows.tolist(), swept.tolist()):
            assert to_dominant(OmegaVector.from_flat(group, row))[0].flat() == tuple(dom)


class TestShellKeys:
    @given(dominant_seeds())
    @settings(max_examples=60, deadline=None)
    def test_norms_match_norm_sq(self, case):
        # the W-closed union of the seeds' orbits, which carries no dominant
        # rows: ``shells`` reads them off the guard
        group, seeds = case
        rows = np.array(seeds, dtype=np.int64).reshape(-1, 2 * group.rank)
        refl = [r.compiled() for r in operators(group).reflections]
        keys = kernel.orbit_keys(rows, _orbit_sizes(group, rows), refl)
        scalar = Counter(norm_sq(OmegaVector.from_flat(group, r))
                         for r in kernel.unpack_keys(keys, rows.shape[1]).tolist())
        num, den, counts = shells(Fragment(group, 0, keys))
        norms = oracles.norms(num, den)
        assert all((b - a).sign() > 0 for a, b in zip(norms, norms[1:]))
        assert dict(zip(norms, counts.tolist())) == scalar


class TestQuadraticForm:
    @given(group_rows(bound=50))
    @settings(max_examples=60)
    def test_matches_scalar_adjugate_form(self, case):
        # v^T adj(A) v summed term by term in GoldenInt arithmetic
        group, rows = case
        adj = golden_adjugate(cartan(group))
        pairs = [(i, j) for i in range(group.rank) for j in range(group.rank)]
        for row, got in zip(rows.tolist(), kernel.quadratic_form_rows(group, rows).tolist()):
            v = OmegaVector.from_flat(group, row).coords
            expect = sum((v[i] * adj[i][j] * v[j] for i, j in pairs), GoldenInt(0))
            assert GoldenInt(*got) == expect

    @pytest.mark.parametrize("group", GROUPS)
    def test_forms_are_read_only(self, group):
        forms = kernel.quadratic_forms(group)
        assert forms.shape == (2, 2 * group.rank, 2 * group.rank)
        with pytest.raises(ValueError):
            forms[0, 0, 0] = 1

    def test_bound_check(self):
        rows = np.full((1, 4), 1 << 29, dtype=np.int64)
        with pytest.raises(ResourceLimitError, match="quadratic form"):
            kernel.quadratic_form_rows(GroupId.H2, rows)


def _reference_alpha(v):
    """A^{-1} v summed term by term in GoldenRational arithmetic."""
    inv = cartan_inverse(v.group)
    k = v.group.rank
    return tuple(
        sum((inv[i][j] * v.coords[j] for j in range(k)), GoldenRational(0))
        for i in range(k)
    )


def _reference_cartesian(v):
    """The embedding of ``_reference_alpha`` against the orthonormal model."""
    model = _MODELS[v.group]
    coeffs = [c.embed() for c in _reference_alpha(v)]
    return tuple(
        sum(coeffs[j] * model[j][d] for j in range(len(model)))
        for d in range(len(model[0]))
    )


class TestCartesian:
    # H2 embeds the omega coordinates directly, the others go through alpha
    @given(group_rows(bound=40, groups=(GroupId.A2, GroupId.H3, GroupId.H4)))
    @settings(max_examples=60)
    def test_bitwise_equal_to_golden_rational_path(self, case):
        group, rows = case
        for row in rows.tolist():
            v = OmegaVector.from_flat(group, row)
            assert alpha_from_omega(v) == _reference_alpha(v)
            assert cartesian(v) == _reference_cartesian(v)

    def test_alpha_coordinates_need_reduction(self):
        # omega_1 of H3 has non-integral alpha coordinates
        v = OmegaVector.make(GroupId.H3, (1, 0, 0))
        assert not all(c.is_integral() for c in alpha_from_omega(v))
        assert cartesian(v) == _reference_cartesian(v)


@st.composite
def lattice_rows(draw, groups=GROUPS, bound=60):
    """A group and the int64 omega rows of random root-lattice points, the
    ``omega_from_alpha`` images of integral alpha rows."""
    group = draw(st.sampled_from(groups))
    cols = 2 * group.rank
    alphas = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                           min_size=1, max_size=30))
    points = [omega_from_alpha(AlphaVector(group, tuple(map(GoldenInt, a[0::2], a[1::2])))) for a in alphas]
    return group, np.array([v.flat() for v in points], dtype=np.int64)


# omega_1 lies outside the root lattice of A2, H2 and H3, whose N(det A)
# are 9, 5 and 4; H4's root lattice is its weight lattice (N(det A) = 1)
OFF_LATTICE = [(GroupId.A2, 9), (GroupId.H2, 5), (GroupId.H3, 4)]


def _with_omega_1(group):
    """The rows of ``generate(group, 1)`` with omega_1 appended."""
    rows = generate(group, 1).rows()
    omega_1 = np.zeros((1, rows.shape[1]), dtype=np.int64)
    omega_1[0, 0] = 1
    return np.concatenate([rows, omega_1])


class TestAlphaRows:
    @given(lattice_rows())
    @settings(max_examples=80)
    def test_equals_alpha_from_omega(self, case):
        group, rows = case
        expect = []
        for row in rows.tolist():
            for c in alpha_from_omega(OmegaVector.from_flat(group, row)):
                expect += [c.as_golden().a, c.as_golden().b]
        assert kernel.alpha_rows(group, rows).ravel().tolist() == expect

    @pytest.mark.parametrize("group,norm", OFF_LATTICE)
    def test_row_outside_the_root_lattice_raises(self, group, norm):
        rows = _with_omega_1(group)
        kernel.alpha_rows(group, rows[:-1])
        with pytest.raises(ValueError, match=rf"{group.name} root lattice: N\(det A\) = {norm} "):
            kernel.alpha_rows(group, rows)


class TestCartesianRows:
    @given(lattice_rows(groups=(GroupId.A2, GroupId.H3, GroupId.H4), bound=40), st.booleans())
    @settings(max_examples=80)
    def test_bitwise_equal_to_scalar(self, case, normalize):
        group, rows = case
        got = kernel.cartesian_rows(group, rows).tolist()
        for row, cart in zip(rows.tolist(), got):
            expect = cartesian(OmegaVector.from_flat(group, row), normalize)
            assert [c.hex() for c in cart] == [c.hex() for c in expect]

    @pytest.mark.parametrize("group", [GroupId.A2, GroupId.H3])
    def test_row_outside_the_root_lattice_raises(self, group):
        with pytest.raises(ValueError, match="root lattice"):
            kernel.cartesian_rows(group, _with_omega_1(group))

    @pytest.mark.parametrize("group", [GroupId.A2, GroupId.H3, GroupId.H4])
    def test_fragment_rows_bitwise_equal(self, group):
        # fragment rows hold the exact zeros whose sign the sum order fixes
        coeffs = generate(group, 2).rows()
        got = kernel.cartesian_rows(group, coeffs).tolist()
        for row, cart in zip(coeffs.tolist(), got):
            expect = cartesian(OmegaVector.from_flat(group, row))
            assert [c.hex() for c in cart] == [c.hex() for c in expect]

    def test_past_int64_guard_raises(self):
        rows = np.array([[1 << 61, 0, 0, 0, 0, 0]], dtype=np.int64)
        with pytest.raises(ResourceLimitError):
            kernel.cartesian_rows(GroupId.H3, rows)


@st.composite
def affine_forms(draw, max_dims=3, coeff=5):
    """A random Z[tau]-affine map of ``dims`` integers as a scalar function:
    form f is off_f + sum_j lin_fj * c_j with GoldenInt coefficients."""
    dims = draw(st.integers(1, max_dims))
    count = draw(st.integers(1, 4))
    golden = st.builds(GoldenInt, st.integers(-coeff, coeff), st.integers(-coeff, coeff))
    off = draw(st.lists(golden, min_size=count, max_size=count))
    row = st.lists(golden, min_size=dims, max_size=dims)
    lin = draw(st.lists(row, min_size=count, max_size=count))

    def fn(point):
        return tuple(
            o + sum((c * x for c, x in zip(row, point)), GoldenInt(0)) for o, row in zip(off, lin)
        )

    return dims, fn


def _flat(values):
    return [c for v in values for c in (v.a, v.b)]


class TestCompiledForms:
    @given(affine_forms(), st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3),
                                    min_size=1, max_size=20))
    def test_compile_matches_scalar(self, case, points):
        dims, fn = case
        rows = np.array([p[:dims] for p in points], dtype=np.int64)
        values = kernel.apply(golden.compile_forms(fn, dims), rows)
        assert values.tolist() == [_flat(fn(tuple(r))) for r in rows.tolist()]

    @given(affine_forms(), st.integers(0, 4))
    @settings(max_examples=60)
    def test_box_scan_matches_scalar(self, case, bound):
        dims, fn = case
        rows = kernel.box_nonnegative(bound, dims, golden.compile_forms(fn, dims))
        expect = [
            list(p) for p in itertools.product(range(-bound, bound + 1), repeat=dims)
            if all(v.sign() >= 0 for v in fn(p))
        ]
        assert rows.tolist() == expect

    @given(affine_forms(), st.integers(0, 4), st.sampled_from((float("nan"), 100.0, -100.0)))
    @settings(max_examples=60)
    def test_box_scan_exact_under_a_wrong_float_proposal(self, case, bound, phi):
        # the float quotient only proposes each threshold; exact signs move it
        dims, fn = case
        forms = golden.compile_forms(fn, dims)
        expect = kernel.box_nonnegative(bound, dims, forms).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "PHI", phi)
            assert kernel.box_nonnegative(bound, dims, forms).tolist() == expect


@st.composite
def bilinear_cases(draw, max_dims=4, coeff=5):
    """A random Z[tau]-bilinear function of two integer ``dims``-vectors,
    sum_ij c_ij x_i y_j with GoldenInt c_ij, and random vectors for it."""
    dims = draw(st.integers(1, max_dims))
    golden = st.builds(GoldenInt, st.integers(-coeff, coeff), st.integers(-coeff, coeff))
    c = draw(st.lists(st.lists(golden, min_size=dims, max_size=dims), min_size=dims, max_size=dims))
    vector = st.lists(st.integers(-50, 50), min_size=dims, max_size=dims)
    pairs = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=20))

    def fn(x, y):
        return sum((c[i][j] * x[i] * y[j] for i in range(dims) for j in range(dims)), GoldenInt(0))

    return dims, fn, pairs


class TestBilinearForms:
    @given(bilinear_cases())
    def test_matches_scalar(self, case):
        dims, fn, pairs = case
        forms = kernel.bilinear_forms(fn, dims)
        assert forms.shape == (2, dims, dims)
        for x, y in pairs:
            got = [int(np.array(x) @ g @ np.array(y)) for g in forms]
            assert GoldenInt(*got) == fn(x, y)

    def test_read_only(self):
        forms = kernel.bilinear_forms(lambda x, y: GoldenInt(x[0] * y[0]), 1)
        with pytest.raises(ValueError):
            forms[0, 0, 0] = 1


class TestCycloRows:
    @given(st.lists(st.tuples(*[st.integers(-60, 60)] * 4), min_size=1, max_size=30))
    @settings(max_examples=80)
    def test_equals_cyclo_from_omega(self, alphas):
        # random root-lattice points: integral alpha coordinates c1, c2
        points = [
            omega_from_alpha(AlphaVector(GroupId.H2, (GoldenInt(a, b), GoldenInt(c, d))))
            for a, b, c, d in alphas
        ]
        rows = np.array([v.flat() for v in points], dtype=np.int64)
        expect = [list(cyclo_from_omega(v).sort_key()) for v in points]
        assert kernel.cyclo_rows(rows).tolist() == expect

    def test_fragment_rows(self):
        f = generate(GroupId.H2, 4)
        expect = [list(x.sort_key()) for x in cyclo_points(f)]
        assert kernel.cyclo_rows(f.rows()).tolist() == expect

    def test_row_outside_the_root_lattice_raises(self):
        # the fundamental weight omega_1 has alpha coordinates over N(det A) = 5
        with pytest.raises(ValueError, match="root lattice"):
            kernel.cyclo_rows(np.array([[1, 0, 0, 0]], dtype=np.int64))

    def test_past_int64_guard_raises(self):
        with pytest.raises(ResourceLimitError):
            kernel.cyclo_rows(np.array([[1 << 61, 0, 0, 0]], dtype=np.int64))
