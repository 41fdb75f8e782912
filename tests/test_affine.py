import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasih.golden import GoldenInt, ONE, TAU, TAU_CONJ, ZERO
from quasih.rootsystem import (
    AlphaVector,
    GroupId,
    H_GROUPS,
    OmegaVector,
    alpha_from_omega,
    cartan,
    golden_det,
    highest_root,
    omega_from_alpha,
)
from quasih import affine
from quasih.affine import (
    _border_matrix,
    reference_diff,
    reference_table,
    enumerate_generalized,
    extended_cartan,
    operators,
    verify_conditions,
    verify_identities,
)
from quasih import kernel
from quasih.fragment import generate
from quasih.kernel import ResourceLimitError
from oracles import compose, identity_operator, points, scalar_identities

ALL_GROUPS = (GroupId.A2,) + H_GROUPS


def gi(a, b=0):
    return GoldenInt(a, b)


class TestExtendedCartan:
    def test_h2_reference(self):
        assert extended_cartan(GroupId.H2) == (
            (gi(2), TAU_CONJ, TAU_CONJ),
            (TAU_CONJ, gi(2), -TAU),
            (TAU_CONJ, -TAU, gi(2)),
        )

    def test_a2_reference(self):
        assert extended_cartan(GroupId.A2) == (
            (gi(2), gi(-1), gi(-1)),
            (gi(-1), gi(2), gi(-1)),
            (gi(-1), gi(-1), gi(2)),
        )

    def test_h3_reference(self):
        m = extended_cartan(GroupId.H3)
        assert m[0] == (gi(2), ZERO, TAU_CONJ, ZERO)
        assert m[0][2] == TAU_CONJ

    def test_h4_reference(self):
        m = extended_cartan(GroupId.H4)
        assert m[0] == (gi(2), TAU_CONJ, ZERO, ZERO, ZERO)

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_conditions_pass(self, group):
        rep = verify_conditions(extended_cartan(group))
        assert rep.all_ok
        assert rep.det == ZERO

    def test_plain_matrix_fails_det_only(self):
        rep = verify_conditions(cartan(GroupId.H2))
        assert rep.diagonal_ok and rep.symmetric_ok and rep.nonpositive_ok
        assert not rep.det_zero_ok
        assert rep.det == gi(3, -1)


class TestOperators:
    def test_h2_r1_formula(self):
        ops = operators(GroupId.H2)
        v = OmegaVector.make(GroupId.H2, (gi(3, 1), gi(-2, 5)))
        image = ops.reflections[0].apply(v)
        v1, v2 = v.coords
        assert image.coords == (-v1, TAU * v1 + v2)

    def test_h2_translation_at_origin(self):
        ops = operators(GroupId.H2)
        assert ops.translation.apply(OmegaVector.zero(GroupId.H2)).coords == (
            -TAU_CONJ,
            -TAU_CONJ,
        )

    def test_affine_reflection_swaps_origin_and_highest_root(self):
        for group in ALL_GROUPS:
            ops = operators(group)
            ah = highest_root(group)
            origin = OmegaVector.zero(group)
            assert ops.affine_reflection.apply(origin) == ah
            assert ops.affine_reflection.apply(ah) == origin

    def test_translation_is_affine_reflection_after_root_reflection(self):
        for group in ALL_GROUPS:
            ops = operators(group)
            composed = compose(ops.affine_reflection, ops.root_reflection)
            assert composed.matrix == ops.translation.matrix
            assert composed.offset == ops.translation.offset

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_reflections_are_involutions(self, group):
        ops = operators(group)
        for r in ops.reflections + (ops.root_reflection, ops.affine_reflection):
            assert compose(r, r) == identity_operator(group)

    def test_translation_never_cycles(self):
        ops = operators(GroupId.H4)
        power = identity_operator(GroupId.H4)
        for _ in range(12):
            power = compose(power, ops.translation)
            assert power != identity_operator(GroupId.H4)

    def test_translation_commutes_only_with_stabilizers(self):
        # r_j commutes with the alpha_H translation exactly when it fixes
        # alpha_H, i.e. when the j-th omega coordinate of alpha_H vanishes
        for group in ALL_GROUPS:
            ops = operators(group)
            t = ops.translation
            ah = highest_root(group)
            for j, r in enumerate(ops.reflections):
                forward = compose(t, r)
                backward = compose(r, t)
                commutes = (forward.matrix, forward.offset) == (
                    backward.matrix,
                    backward.offset,
                )
                assert commutes == ah.coords[j].is_zero()

    def test_h2_matrix_form_agrees_with_coordinate_formulas(self):
        # the 2x2 matrix forms and explicit coordinate formulas agree on
        # 1000 random points, exactly
        ops = operators(GroupId.H2)
        rng = random.Random(555)
        for _ in range(1000):
            v = OmegaVector.make(
                GroupId.H2,
                (
                    GoldenInt(rng.randint(-99, 99), rng.randint(-99, 99)),
                    GoldenInt(rng.randint(-99, 99), rng.randint(-99, 99)),
                ),
            )
            v1, v2 = v.coords
            assert ops.reflections[0].apply(v).coords == (-v1, TAU * v1 + v2)
            assert ops.reflections[1].apply(v).coords == (v1 + TAU * v2, -v2)
            assert ops.translation.apply(v).coords == (v1 - TAU_CONJ, v2 - TAU_CONJ)

    @given(st.sampled_from(ALL_GROUPS), st.data())
    @settings(max_examples=40)
    def test_compiled_matches_scalar_apply(self, group, data):
        # every operator: the integer form read off ``apply`` acts on rows as
        # ``apply`` acts on points, and a second call returns the cached arrays
        cols = 2 * group.rank
        row = st.lists(st.integers(-60, 60), min_size=cols, max_size=cols)
        rows = np.array(data.draw(st.lists(row, min_size=1, max_size=20)), dtype=np.int64)
        ops = operators(group)
        for op in ops.reflections + (ops.root_reflection, ops.affine_reflection, ops.translation):
            compiled = op.compiled()
            expect = [list(op.apply(OmegaVector.from_flat(group, r)).flat()) for r in rows.tolist()]
            assert kernel.apply(compiled, rows).tolist() == expect
            again = op.compiled()
            assert again[0] is compiled[0] and again[1] is compiled[1]
            assert not (compiled[0].flags.writeable or compiled[1].flags.writeable)

    def test_h3_operator_table(self):
        ops = operators(GroupId.H3)
        v = OmegaVector.make(
            GroupId.H3, (gi(1, 2), gi(-3, 1), gi(0, -2))
        )
        v1, v2, v3 = v.coords
        assert ops.translation.apply(v).coords == (v1, v2 - TAU_CONJ, v3)
        assert ops.reflections[0].apply(v).coords == (-v1, v1 + v2, v3)
        assert ops.reflections[1].apply(v).coords == (v1 + v2, -v2, v3 + TAU * v2)
        assert ops.reflections[2].apply(v).coords == (v1, v2 + TAU * v3, -v3)

    def test_h4_operator_table(self):
        ops = operators(GroupId.H4)
        v = OmegaVector.make(
            GroupId.H4, (gi(2, -1), gi(1, 1), gi(-1, 0), gi(0, 3))
        )
        v1, v2, v3, v4 = v.coords
        assert ops.translation.apply(v).coords == (v1 - TAU_CONJ, v2, v3, v4)
        assert ops.reflections[0].apply(v).coords == (-v1, v1 + v2, v3, v4)
        assert ops.reflections[1].apply(v).coords == (v1 + v2, -v2, v2 + v3, v4)
        assert ops.reflections[2].apply(v).coords == (v1, v2 + v3, -v3, v4 + TAU * v3)
        assert ops.reflections[3].apply(v).coords == (v1, v2, v3 + TAU * v4, -v4)


class TestIdentities:
    @pytest.mark.parametrize("group", ALL_GROUPS)
    @pytest.mark.parametrize("extended", [False, True])
    def test_all_pairs(self, group, extended):
        pairs = verify_identities(group, extended)
        assert all(p.holds and p.minimal for p in pairs), pairs

    def test_h2_pentagonal_orders(self):
        orders = {(p.i, p.j): p.order for p in verify_identities(GroupId.H2, extended=False)}
        assert orders[(0, 1)] == 5
        assert orders[(0, 0)] == 1

    def test_extended_h2_r0_r1_has_order_five(self):
        orders = {(p.i, p.j): p.order for p in verify_identities(GroupId.H2, extended=True)}
        # generator 0 is r0; a_01 = tau' forces order 5
        assert orders[(0, 1)] == 5

    def test_h4_sample_orders(self):
        orders = {(p.i, p.j): p.order for p in verify_identities(GroupId.H4, extended=False)}
        assert orders[(2, 3)] == 5  # a_34 = -tau
        assert orders[(0, 2)] == 2  # a_13 = 0
        assert orders[(0, 1)] == 3  # a_12 = -1

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_affine_generator_relations(self, group):
        # the actual affine Coxeter relations, with the affine reflection as
        # the zeroth generator, hold as affine maps
        from quasih.affine import coxeter_order

        ops = operators(group)
        gens = (ops.affine_reflection,) + ops.reflections
        matrix = extended_cartan(group)
        for i in range(len(gens)):
            for j in range(i, len(gens)):
                order = coxeter_order(matrix[i][j])
                prod = compose(gens[i], gens[j])
                power = identity_operator(group)
                for _ in range(order):
                    power = compose(power, prod)
                assert power == identity_operator(group)

    @pytest.mark.parametrize("group", ALL_GROUPS)
    @pytest.mark.parametrize("extended", [False, True])
    def test_equals_scalar_composition(self, group, extended):
        assert verify_identities(group, extended) == scalar_identities(group, extended)

    def test_doubled_order_holds_but_is_not_minimal(self, monkeypatch):
        # (r_i r_j)^(2M) = 1 as well, but the power M already is the identity
        order = affine.coxeter_order
        monkeypatch.setattr(affine, "coxeter_order", lambda entry: 2 * order(entry))
        pairs = verify_identities(GroupId.H3, extended=True)
        assert all(p.holds and not p.minimal for p in pairs)

    def test_changed_compiled_entry_breaks_a_relation(self, monkeypatch):
        # the relations are read off the compiled integer matrices: one
        # wrong entry in r_1's must show
        compiled = affine.AffineOperator.compiled
        r1 = operators(GroupId.H3).reflections[0]

        def wrong(op):
            m, off = compiled(op)
            if op == r1:
                m = m.copy()
                m[0, 0] += 1
            return m, off

        monkeypatch.setattr(affine.AffineOperator, "compiled", wrong)
        for extended in (False, True):
            assert not all(p.holds for p in verify_identities(GroupId.H3, extended))


class TestEnumeration:
    def test_h2_exact_table(self):
        result = enumerate_generalized(GroupId.H2, 3)
        assert _coeffs(result) == list(reference_table(GroupId.H2))

    def test_first_table_row_present(self):
        result = enumerate_generalized(GroupId.H2, 3)
        assert (-2, 0, 0, 1) in _coeffs(result)

    def test_candidates_satisfy_conditions_except_sign(self):
        for c in _coeffs(enumerate_generalized(GroupId.H2, 2)):
            rep = verify_conditions(_matrix_of_border(GroupId.H2, c))
            assert rep.diagonal_ok and rep.symmetric_ok and rep.det_zero_ok

    def test_sorted_lexicographically(self):
        coeffs = _coeffs(enumerate_generalized(GroupId.H3, 2))
        assert coeffs == sorted(coeffs)

    @pytest.mark.parametrize("group", H_GROUPS)
    @pytest.mark.parametrize("bound", (1, 2, 3))
    def test_rows_rise_strictly(self, group, bound):
        coeffs = _coeffs(enumerate_generalized(group, bound))
        assert all(a < b for a, b in zip(coeffs, coeffs[1:]))

    def test_rows_are_read_only_int64(self):
        rows = enumerate_generalized(GroupId.H3, 3)
        assert rows.dtype == np.int64 and rows.shape == (30, 6)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0
        assert enumerate_generalized(GroupId.H3, 3)[0, 0] == rows[0, 0]

    # sha256 of repr([tuple, ...]) of the coefficient lists that the earlier
    # solved-last-coefficient scan gave; the box scan must give the same
    @pytest.mark.parametrize("group,bound,count,digest", [
        (GroupId.H2, 1, 6, "87e242a32cb19864705c4a36acff284b81f4a661eee5acb2e214ba7e1d0e8f38"),
        (GroupId.H3, 1, 24, "c3c15863bb84d622a8e64392c620e1ca149a43249eb1e8159e0e043cfe0e5324"),
        (GroupId.H4, 1, 112, "dbecafbd55a7b3f8e1fc1c12eb9de42d1e5bde6743f8cc3e82a689691766fd8b"),
    ] + [
        (GroupId.H2, b, 10, "dfa874df7e58f3ae0f6845c6f58be1866e72794927994522ddd908aaaa7ff70b")
        for b in (2, 3, 4, 12)
    ] + [
        (GroupId.H3, b, 30, "a860fa2778fe9dc31ab33f015afc73fc2f7f576f99022b44c5c941d5fcdb9af8")
        for b in (2, 3, 4, 12)
    ] + [
        (GroupId.H4, b, 120, "0a3b236675c3861b6c408cd9abc7433c1ae24a3af596da9d3da1cf1d64b28afe")
        for b in (2, 3, 4)
    ])
    def test_pinned_coefficient_lists(self, group, bound, count, digest):
        coeffs = _coeffs(enumerate_generalized(group, bound))
        assert len(coeffs) == count
        assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("group,count", [(GroupId.H2, 10), (GroupId.H3, 30), (GroupId.H4, 120)])
    def test_psd_count_matches_float_eigenvalues(self, group, count):
        # the float reference the exact count replaced: least eigenvalue >= -1e-9
        res = enumerate_generalized(group, 3)
        matrices = [_matrix_of_border(group, c) for c in _coeffs(res)]
        by_float = sum(
            np.linalg.eigvalsh(np.array([[e.embed() for e in row] for row in m])).min() >= -1e-9
            for m in matrices
        )
        assert by_float == len(res) == count

    def test_cartan_block_not_positive_definite_is_refused(self, monkeypatch):
        # a symmetric block with a negative determinant: the exact minors
        # refuse it instead of counting its candidates as PSD
        entries = ((GoldenInt(2), GoldenInt(-3)), (GoldenInt(-3), GoldenInt(2)))
        monkeypatch.setattr(affine, "cartan", lambda group: entries)
        with pytest.raises(AssertionError, match="not positive definite"):
            enumerate_generalized.__wrapped__(GroupId.H2, 2)

    def test_block_positive_definite_under_one_embedding_is_refused(self, monkeypatch):
        # ((2, -x), (-x, 2)) with x = -2 + 2*tau: det = 4 - x^2 is > 0 but
        # its conjugate is < 0, so the box would not hold; refused before
        # the forms of the grid are built
        x = GoldenInt(-2, 2)
        entries = ((GoldenInt(2), -x), (-x, GoldenInt(2)))
        assert (4 - x * x).sign() > 0 > (4 - x * x).conj().sign()
        monkeypatch.setattr(affine, "cartan", lambda group: entries)
        monkeypatch.setattr(affine, "quadratic_forms", lambda group: pytest.fail("grid work"))
        with pytest.raises(AssertionError, match="the h2 Cartan matrix is not positive definite"):
            enumerate_generalized.__wrapped__(GroupId.H2, 2)

    def test_extended_matrix_is_unique_nonpositive_candidate(self):
        for group in H_GROUPS:
            res = enumerate_generalized(group, 3)
            borders = [OmegaVector.from_flat(group, c).coords for c in _coeffs(res)]
            nonpos = [b for b in borders if all(e.sign() <= 0 for e in b)]
            assert len(nonpos) == 1
            assert nonpos[0] == tuple(extended_cartan(group)[0][1:])

    def test_h3_diff_finding(self):
        # four reference rows are determinant -8 (inconsistent source
        # data); the other sixteen are all found
        missing, extras = reference_diff(GroupId.H3, 3)
        assert len(reference_table(GroupId.H3)) == 20
        assert len(missing) == 4 and missing == tuple(sorted(missing))
        for row in missing:
            assert _det_of_border(GroupId.H3, row) == gi(-8)
        assert extras == tuple(sorted(extras))
        assert len(extras) == 30 - 16

    def test_h4_table_covered(self):
        missing, extras = reference_diff(GroupId.H4, 3)
        assert missing == ()
        assert len(enumerate_generalized(GroupId.H4, 3)) == 120

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            enumerate_generalized(GroupId.H2, 0)

    @pytest.mark.parametrize(
        "group,bound",
        [(GroupId.H2, 1), (GroupId.H2, 2), (GroupId.H2, 3), (GroupId.H3, 1)],
    )
    def test_equals_scalar_scan(self, group, bound):
        # every border of the box, in lexicographic order, through the
        # GoldenInt cofactor determinant
        expect = []
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=2 * group.rank):
            if _det_of_border(group, coeffs).is_zero():
                expect.append(coeffs)
        assert _coeffs(enumerate_generalized(group, bound)) == expect

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_h4_candidate_exactly_when_determinant_zero(self, data):
        found = _coeffs(enumerate_generalized(GroupId.H4, 3))
        coeff = st.integers(-3, 3)
        coeffs = data.draw(st.one_of(st.sampled_from(found), st.tuples(*[coeff] * 8)))
        if data.draw(st.booleans()):  # a neighbour of a drawn border
            i = data.draw(st.integers(0, 7))
            coeffs = coeffs[:i] + (data.draw(coeff),) + coeffs[i + 1:]
        assert (coeffs in found) == _det_of_border(GroupId.H4, coeffs).is_zero()


def _coeffs(rows):
    return [tuple(r) for r in rows.tolist()]


def _matrix_of_border(group, coeffs):
    return _border_matrix(group, OmegaVector.from_flat(group, coeffs).coords)


def _det_of_border(group, coeffs):
    return golden_det(_matrix_of_border(group, coeffs))


class TestBorderDeterminants:
    # the int64 Leibniz sum against the GoldenInt cofactor recursion
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_golden_det(self, data):
        group = data.draw(st.sampled_from(H_GROUPS))
        found = _coeffs(enumerate_generalized(group, 3))
        coeff = st.integers(-60, 60)
        rows = data.draw(st.lists(st.one_of(st.sampled_from(found), st.tuples(*[coeff] * (2 * group.rank))),
                                  min_size=1, max_size=8))
        got = affine.border_dets(group, np.array(rows, dtype=np.int64)).tolist()
        assert [GoldenInt(*d) for d in got] == [_det_of_border(group, r) for r in rows]

    def test_entries_at_the_int64_bound(self):
        # H4: 5! * 3^4 * e^5 < 2^62 holds for e = 800 and fails for e = 900
        row = (800, -800) * 4
        [got] = affine.border_dets(GroupId.H4, np.array([row])).tolist()
        assert GoldenInt(*got) == _det_of_border(GroupId.H4, row)
        with pytest.raises(ResourceLimitError, match="Leibniz determinant: coefficient bound"):
            affine.border_dets(GroupId.H4, np.array([(900, 0) * 4]))

    def test_corrupted_hit_is_refused(self, monkeypatch):
        # the first row of the H2 box, (-2, 0, -2, 0), planted as a hit
        real = affine.quadratic_form_rows
        target = 2 * golden_det(cartan(GroupId.H2))

        def planted(group, slab):
            q = real(group, slab).copy()
            q[0] = target.a, target.b
            return q

        monkeypatch.setattr(affine, "quadratic_form_rows", planted)
        with pytest.raises(AssertionError, match=r"^Schur/cofactor determinant mismatch at \[-2, 0, -2, 0\]$"):
            enumerate_generalized.__wrapped__(GroupId.H2, 2)


class TestEnumerationBox:
    # every determinant-zero border has |x_i| <= 2 and |y_i| <= 1, so a
    # bound past 2 finds nothing new
    @pytest.mark.parametrize(
        "group,bounds",
        [(GroupId.H2, range(3, 13)), (GroupId.H3, range(3, 13)), (GroupId.H4, (3, 4))],
    )
    def test_bound_past_the_box_finds_nothing_new(self, group, bounds):
        expect = _coeffs(enumerate_generalized.__wrapped__(group, 2))
        for bound in bounds:
            assert _coeffs(enumerate_generalized.__wrapped__(group, bound)) == expect

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_border_outside_the_box_has_nonzero_determinant(self, data):
        coeffs = list(data.draw(st.tuples(*[st.integers(-4, 4)] * 8)))
        i = data.draw(st.integers(0, 7))
        least = 3 if i % 2 == 0 else 2  # x_i at even places, y_i at odd
        coeffs[i] = data.draw(st.integers(least, 4)) * data.draw(st.sampled_from((-1, 1)))
        assert not _det_of_border(GroupId.H4, tuple(coeffs)).is_zero()


class TestEnumerationCap:
    # the uncached function, so a cached result cannot hide the check
    def test_cap_admits_up_to_its_volume(self, monkeypatch):
        monkeypatch.setattr(affine, "ENUMERATION_CAP", 7**3)
        assert len(enumerate_generalized.__wrapped__(GroupId.H2, 3)) == 10
        with pytest.raises(ResourceLimitError, match="grid of 729 points exceeds cap 343"):
            enumerate_generalized.__wrapped__(GroupId.H2, 4)

    def test_h4_refused_at_five(self):
        # 9^7 fits the default cap, 11^7 does not; refused before allocating
        assert 9**7 <= affine.ENUMERATION_CAP
        with pytest.raises(ResourceLimitError, match="grid of 19487171 points"):
            enumerate_generalized.__wrapped__(GroupId.H4, 5)

    def test_int64_bound_checked_before_the_grid(self, monkeypatch):
        monkeypatch.setattr(affine, "ENUMERATION_CAP", 1 << 200)
        with pytest.raises(ResourceLimitError, match="unsafe for int64"):
            enumerate_generalized.__wrapped__(GroupId.H2, 1 << 31)


class TestEnumerationSlabs:
    # the uncached function, with the border box cut into small slabs
    CASES = [(g, b) for g in (GroupId.H2, GroupId.H3) for b in (1, 2, 3)] + [(GroupId.H4, 2), (GroupId.H4, 3)]

    @pytest.mark.parametrize("slab", [1, 5, 7])
    def test_slab_size_does_not_change_the_result(self, monkeypatch, slab):
        expect = [enumerate_generalized.__wrapped__(*case) for case in self.CASES]
        monkeypatch.setattr(affine, "_SLAB", slab)
        for case, want in zip(self.CASES, expect):
            got = enumerate_generalized.__wrapped__(*case)
            assert _coeffs(got) == _coeffs(want)

    def test_peak_traced_allocation(self):
        # slabs of _SLAB // 4 rows of the 13^4-row H4 box: the call peaks at
        # 1.34 MB, and 1.1 MB of that is border_dets re-checking the 120 hits
        # at once, not the slab (1.54 MB with slabs of _SLAB rows); the whole
        # box as one slab peaks at 4.05 MB
        tracemalloc.start()
        try:
            enumerate_generalized.__wrapped__(GroupId.H4, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestReferenceTables:
    def test_row_counts(self):
        assert len(reference_table(GroupId.H2)) == 10
        assert len(reference_table(GroupId.H3)) == 20
        assert len(reference_table(GroupId.H4)) == 120

    def test_specific_rows(self):
        assert (-2, 0, 0, 1) in reference_table(GroupId.H2)
        assert (0, -3, -1, 2, -1, 1) in reference_table(GroupId.H3)


class TestA2Demo:
    def test_n0(self):
        f = generate(GroupId.A2, 0)
        assert f.size == 1 and points(f)[0].is_zero()

    def test_n1_is_origin_plus_root_orbit(self):
        from quasih.rootsystem import roots_omega

        f = generate(GroupId.A2, 1)
        assert f.size == 7
        assert set(points(f)) == set(roots_omega(GroupId.A2)) | {
            OmegaVector.zero(GroupId.A2)
        }

    def test_points_lie_in_root_lattice(self):
        for n in range(4):
            for p in points(generate(GroupId.A2, n)):
                coords = alpha_from_omega(p)
                assert all(c.is_integral() and c.as_golden().b == 0 for c in coords)

    def test_translation_adds_highest_root(self):
        ops = operators(GroupId.A2)
        v = OmegaVector.make(GroupId.A2, (gi(4), gi(-7)))
        assert ops.translation.apply(v).coords == (gi(5), gi(-6))
