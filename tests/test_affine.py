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
    CartanCandidate,
    _border_matrix,
    reference_diff,
    reference_table,
    enumerate_generalized,
    extended_cartan,
    identity_operator,
    operators,
    verify_conditions,
    verify_identities,
)
from quasih import kernel
from quasih.fragment import generate
from quasih.kernel import ResourceLimitError
from oracles import points

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
            composed = ops.affine_reflection.compose(ops.root_reflection)
            assert composed.matrix == ops.translation.matrix
            assert composed.offset == ops.translation.offset

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_reflections_are_involutions(self, group):
        ops = operators(group)
        for r in ops.reflections + (ops.root_reflection, ops.affine_reflection):
            assert r.compose(r) == identity_operator(group)

    def test_translation_never_cycles(self):
        ops = operators(GroupId.H4)
        power = identity_operator(GroupId.H4)
        for _ in range(12):
            power = power.compose(ops.translation)
            assert power != identity_operator(GroupId.H4)

    def test_translation_commutes_only_with_stabilizers(self):
        # r_j commutes with the alpha_H translation exactly when it fixes
        # alpha_H, i.e. when the j-th omega coordinate of alpha_H vanishes
        for group in ALL_GROUPS:
            ops = operators(group)
            t = ops.translation
            ah = highest_root(group)
            for j, r in enumerate(ops.reflections):
                forward = t.compose(r)
                backward = r.compose(t)
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
                prod = gens[i].compose(gens[j])
                power = identity_operator(group)
                for _ in range(order):
                    power = power.compose(prod)
                assert power == identity_operator(group)


class TestEnumeration:
    def test_h2_exact_table(self):
        result = enumerate_generalized(GroupId.H2, 3)
        assert [c.coeffs for c in result] == list(reference_table(GroupId.H2))

    def test_first_table_row_present(self):
        result = enumerate_generalized(GroupId.H2, 3)
        assert (-2, 0, 0, 1) in {c.coeffs for c in result}

    def test_candidates_satisfy_conditions_except_sign(self):
        for c in enumerate_generalized(GroupId.H2, 2):
            rep = verify_conditions(c.matrix)
            assert rep.diagonal_ok and rep.symmetric_ok and rep.det_zero_ok

    def test_sorted_lexicographically(self):
        coeffs = [c.coeffs for c in enumerate_generalized(GroupId.H3, 2)]
        assert coeffs == sorted(coeffs)

    @pytest.mark.parametrize("group,count", [(GroupId.H2, 10), (GroupId.H3, 30), (GroupId.H4, 120)])
    def test_psd_count_matches_float_eigenvalues(self, group, count):
        # the float reference the exact count replaced: least eigenvalue >= -1e-9
        res = enumerate_generalized(group, 3)
        by_float = sum(
            np.linalg.eigvalsh(np.array([[e.embed() for e in row] for row in c.matrix])).min()
            >= -1e-9
            for c in res
        )
        assert by_float == len(res) == count

    def test_cartan_block_not_positive_definite_is_refused(self, monkeypatch):
        # a symmetric block with a negative determinant: the exact minors
        # refuse it instead of counting its candidates as PSD
        entries = ((GoldenInt(2), GoldenInt(-3)), (GoldenInt(-3), GoldenInt(2)))
        monkeypatch.setattr(affine, "cartan", lambda group: entries)
        with pytest.raises(AssertionError, match="not positive definite"):
            enumerate_generalized.__wrapped__(GroupId.H2, 2)

    def test_extended_matrix_is_unique_nonpositive_candidate(self):
        for group in H_GROUPS:
            res = enumerate_generalized(group, 3)
            nonpos = [c for c in res if c.is_nonpositive()]
            assert len(nonpos) == 1
            assert nonpos[0].border() == tuple(extended_cartan(group)[0][1:])

    def test_h3_diff_finding(self):
        # four reference rows are determinant -8 (inconsistent source
        # data); the other sixteen are all found
        diff = reference_diff(GroupId.H3, 3)
        assert diff.table_count == 20
        assert len(diff.missing) == 4
        for row in diff.missing:
            it = iter(row)
            border = tuple(GoldenInt(x, y) for x, y in zip(it, it))
            from quasih.affine import _border_matrix

            assert golden_det(_border_matrix(GroupId.H3, border)) == gi(-8)

    def test_h4_table_covered(self):
        diff = reference_diff(GroupId.H4, 3)
        assert diff.table_covered
        assert diff.enumerated_count == 120

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
        assert [c.coeffs for c in enumerate_generalized(group, bound)] == expect

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_h4_candidate_exactly_when_determinant_zero(self, data):
        found = [c.coeffs for c in enumerate_generalized(GroupId.H4, 3)]
        coeff = st.integers(-3, 3)
        coeffs = data.draw(st.one_of(st.sampled_from(found), st.tuples(*[coeff] * 8)))
        if data.draw(st.booleans()):  # a neighbour of a drawn border
            i = data.draw(st.integers(0, 7))
            coeffs = coeffs[:i] + (data.draw(coeff),) + coeffs[i + 1:]
        assert (coeffs in found) == _det_of_border(GroupId.H4, coeffs).is_zero()


def _det_of_border(group, coeffs):
    it = iter(coeffs)
    border = tuple(GoldenInt(x, y) for x, y in zip(it, it))
    return golden_det(_border_matrix(group, border))


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
    # the uncached function, with the middle grid cut into small slabs
    CASES = [(g, b) for g in (GroupId.H2, GroupId.H3) for b in (1, 2, 3)] + [(GroupId.H4, 2)]

    @pytest.mark.parametrize("slab", [1, 5, 7])
    def test_slab_size_does_not_change_the_result(self, monkeypatch, slab):
        expect = [enumerate_generalized.__wrapped__(*case) for case in self.CASES]
        monkeypatch.setattr(affine, "_SLAB", slab)
        for case, want in zip(self.CASES, expect):
            got = enumerate_generalized.__wrapped__(*case)
            assert [c.coeffs for c in got] == [c.coeffs for c in want]

    def test_peak_traced_allocation(self):
        # one slab of the 7^6 middle grid at a time; the whole grid with
        # its quadratic parts and (7^6, 7) buffer was 24.2 MB
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
