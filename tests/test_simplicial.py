import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import binoids.simplicial
from binoids.errors import CompositionNonzero, NotAFace, UnknownVertex, VoidComplex
from binoids.exactalg import FinAbGroup, GroupExpr
from binoids.simplicial import SimplicialComplex

from fixtures import FAVOURITE_FACETS, RP2_FACETS, TRIANGLE_BOUNDARY
from oracles import (
    brute_faces,
    brute_simplicial_cohomology,
    make_rng,
    modm_cohomology_orders,
    modp_cohomology_dims,
    naive_complex_cohomology,
    random_facets,
)


def favourite():
    return SimplicialComplex.from_facets(FAVOURITE_FACETS)


def triangle_boundary():
    return SimplicialComplex.from_facets(TRIANGLE_BOUNDARY)


def components_oracle(facets):
    """Connected components of the 1-skeleton, by union-find."""
    verts = sorted({v for f in facets for v in f})
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for f in facets:
        for a, b in zip(f, f[1:]):
            parent[find(a)] = find(b)
    return len({find(v) for v in verts})


class TestRepresentation:
    def test_void_and_empty_are_distinct(self):
        void = SimplicialComplex.void()
        empty = SimplicialComplex.empty()
        assert void != empty
        assert void.is_void and not void.is_empty
        assert empty.is_empty and not empty.is_void
        assert void.all_faces() == []
        assert empty.all_faces() == [()]

    def test_isolated_vertices_become_singleton_facets(self):
        c = SimplicialComplex.make([1, 2, 3], [(1, 2)])
        assert c.facets == ((1, 2), (3,))

    def test_facets_are_pruned_to_maximal(self):
        c = SimplicialComplex.from_facets([(1, 2), (1,), (2,), (1, 2)])
        assert c.facets == ((1, 2),)

    def test_dimension(self):
        assert favourite().dimension == 2
        assert SimplicialComplex.empty().dimension == -1
        assert SimplicialComplex.void().dimension == -2


class TestFaces:
    def test_favourite_edges(self):
        assert favourite().faces(1) == [(1, 2), (1, 3), (2, 3), (3, 4)]

    def test_above_dimension_is_empty(self):
        assert favourite().faces(5) == []

    def test_triangle_boundary_vertices(self):
        assert triangle_boundary().faces(0) == [(1,), (2,), (3,)]

    def test_empty_face_listed_for_nonvoid(self):
        assert favourite().faces(-1) == [()]
        assert SimplicialComplex.void().faces(-1) == []


class TestLink:
    def test_favourite_center(self):
        link = favourite().link((3,))
        assert link.facets == ((1, 2), (4,))

    def test_empty_face_gives_whole_complex(self):
        assert favourite().link(()) == favourite()

    def test_favourite_leaf(self):
        link = favourite().link((4,))
        assert link.facets == ((3,),)

    def test_link_of_facet_is_empty_complex(self):
        assert favourite().link((1, 2, 3)).is_empty

    def test_not_a_face(self):
        with pytest.raises(NotAFace):
            favourite().link((1, 4))

    def test_repeated_vertex_is_not_a_face(self):
        assert favourite().has_face((3, 1))
        assert not favourite().has_face((1, 1))
        with pytest.raises(NotAFace):
            favourite().link((3, 3))


class TestRestriction:
    def test_favourite(self):
        r = favourite().restriction([2, 3, 4])
        assert r.facets == ((2, 3), (3, 4))

    def test_full_vertex_set(self):
        assert favourite().restriction([1, 2, 3, 4]) == favourite()

    def test_single_vertex(self):
        r = triangle_boundary().restriction([1])
        assert r.facets == ((1,),)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            favourite().restriction([1, 9])

    def test_matches_downward_closure_filter(self):
        rng = make_rng(5)
        for _ in range(25):
            c = SimplicialComplex.from_facets(random_facets(rng))
            w = [v for v in c.vertices if rng.random() < 0.6]
            r = c.restriction(w)
            expected = sorted(f for f in c.all_faces() if set(f) <= set(w))
            assert sorted(r.all_faces()) == expected


class TestCrosscut:
    def test_favourite_cover_faces(self):
        c = favourite()
        cut = c.crosscut([(4,), (2, 3), (1, 3), (1, 2)])
        # index pairs {2,3},{2,4},{3,4} have union {1,2,3} in the complex,
        # and so does the triple; index 1 stays isolated
        assert cut.facets == ((1,), (2, 3, 4))
        assert cut.faces(1) == [(2, 3), (2, 4), (3, 4)]

    def test_all_singletons_reproduce_complex(self):
        rng = make_rng(6)
        for _ in range(20):
            c = SimplicialComplex.from_facets(random_facets(rng))
            cut = c.crosscut([(v,) for v in c.vertices])
            relabeled = tuple(
                tuple(c.vertices[i - 1] for i in f) for f in cut.facets
            )
            assert relabeled == c.facets

    def test_single_face(self):
        cut = favourite().crosscut([(1, 2, 3)])
        assert cut.facets == ((1,),)

    def test_not_a_face(self):
        with pytest.raises(NotAFace):
            favourite().crosscut([(1, 4)])

    def test_empty_list_is_void(self):
        assert favourite().crosscut([]) == SimplicialComplex.void()


class TestCochainComplex:
    def test_single_vertex_reduced(self):
        c = SimplicialComplex.from_facets([(1,)])
        diffs = c.cochain_complex(reduced=True)
        assert len(diffs) == 1
        assert diffs[0].to_lists() == [[1]]

    def test_triangle_boundary_incidence(self):
        diffs = triangle_boundary().cochain_complex(reduced=False)
        assert len(diffs) == 1
        # rows are the edges (1,2),(1,3),(2,3); signs from ascending vertex order
        assert diffs[0].to_lists() == [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
        fr, tor = naive_complex_cohomology(diffs[0].to_lists(), [], 3)
        assert (fr, tor) == (1, ())

    def test_empty_complex_reduced(self):
        assert SimplicialComplex.empty().cochain_complex(reduced=True) == []

    def test_void_complex_raises(self):
        with pytest.raises(VoidComplex):
            SimplicialComplex.void().cochain_complex(reduced=True)

    def test_d_after_d_is_zero(self):
        rng = make_rng(7)
        for _ in range(25):
            c = SimplicialComplex.from_facets(random_facets(rng))
            for reduced in (False, True):
                diffs = c.cochain_complex(reduced=reduced)
                for a, b in zip(diffs, diffs[1:]):
                    assert (b * a).is_zero()


class TestCohomology:
    def test_two_points_reduced(self):
        c = SimplicialComplex.from_facets([(1,), (2,)])
        assert c.cohomology(reduced=True) == [FinAbGroup(0), FinAbGroup(1)]

    def test_rp2_reduced(self):
        c = SimplicialComplex.from_facets(RP2_FACETS)
        groups = c.cohomology(reduced=True)
        assert groups == [
            FinAbGroup(0),
            FinAbGroup(0),
            FinAbGroup(0),
            FinAbGroup(0, (2,)),
        ]

    def test_empty_complex_reduced(self):
        assert SimplicialComplex.empty().cohomology(reduced=True) == [FinAbGroup(1)]

    def test_unreduced_h0_counts_components(self):
        rng = make_rng(8)
        for _ in range(25):
            facets = random_facets(rng)
            c = SimplicialComplex.from_facets(facets)
            groups = c.cohomology(reduced=False)
            assert groups[0] == FinAbGroup(components_oracle(c.facets))

    def test_euler_characteristic(self):
        rng = make_rng(9)
        for _ in range(25):
            c = SimplicialComplex.from_facets(random_facets(rng))
            chi_faces = sum(
                (-1) ** d * len(c.faces(d)) for d in range(c.dimension + 1)
            )
            groups = c.cohomology(reduced=False)
            chi_cohom = sum((-1) ** j * g.free_rank for j, g in enumerate(groups))
            assert chi_faces == chi_cohom


@st.composite
def vertices_and_facets(draw):
    """Up to nine vertices in shuffled order, some in no facet; zero vertices give {∅}."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return [], [()]
    labels = draw(st.permutations(range(1, n + 1)))
    facets = draw(
        st.lists(
            st.lists(st.sampled_from(labels), min_size=1, max_size=min(n, 5), unique=True),
            max_size=n + 2,
        )
    )
    return labels, facets


class TestCohomologyAgainstFullCoboundary:
    @settings(max_examples=80, deadline=None)
    @given(vertices_and_facets())
    def test_matches_oracle(self, drawn):
        labels, facets = drawn
        c = SimplicialComplex.make(labels, facets)
        for reduced in (True, False):
            expected = brute_simplicial_cohomology(labels, facets, reduced)
            assert c.cohomology(reduced=reduced) == [FinAbGroup(*g) for g in expected]


class TestCohomologyOutsideOneStar:
    """The complex reduced after one d∘d = 0 check leaves out the star of one vertex."""

    @pytest.fixture
    def handed(self, monkeypatch):
        handed, checked = [], []
        reduce = binoids.simplicial._reduce_complex
        check = binoids.simplicial._sparse_complex

        def capture(ranks, diffs):
            # d∘d = 0 was checked once, on exactly the complex handed over
            ((checked_ranks, checked_rows),) = checked
            assert checked_ranks == list(ranks) and checked_rows is diffs
            checked.clear()
            handed.append(list(ranks))
            return reduce(ranks, diffs)

        def count(ranks, diffs, name):
            rows = check(ranks, diffs, name)
            checked.append((list(ranks), rows))
            return rows

        monkeypatch.setattr(binoids.simplicial, "_reduce_complex", capture)
        monkeypatch.setattr(binoids.simplicial, "_sparse_complex", count)
        return handed

    def test_full_simplex_hands_over_nothing(self, handed):
        c = SimplicialComplex.from_facets([(1, 2, 3, 4, 5)])
        assert c.cohomology(reduced=True) == [FinAbGroup(0)] * 6
        assert c.cohomology(reduced=False) == [FinAbGroup(1)] + [FinAbGroup(0)] * 4
        assert handed == [[0] * 6, [0] * 5]

    def test_no_face_of_the_star_is_handed_over(self, handed):
        rng = make_rng(12)
        for _ in range(25):
            facets = random_facets(rng)
            c = SimplicialComplex.from_facets(facets)
            faces = brute_faces(facets)
            maximal = [f for f in faces if not any(f < g for g in faces)]
            vertices = sorted({v for f in facets for v in f})
            in_facets = [sum(v in f for f in maximal) for v in vertices]
            w = vertices[in_facets.index(max(in_facets))]
            outside = [f for f in faces if f | {w} not in faces]
            for reduced in (True, False):
                c.cohomology(reduced=reduced)
                start = -1 if reduced else 0
                assert handed.pop() == [
                    sum(len(f) == d + 1 for f in outside)
                    for d in range(start, c.dimension + 1)
                ]



class TestCompositionNamesTheCell:
    def test_flipped_sign_names_face(self, monkeypatch):
        # octahedron, antipodes 1/2, 3/4, 5/6: outside the star of w = 1 lie
        # vertex 2, the edges (2, x) and the triangles (2, x, y), x in 3/4 and
        # y in 5/6.  Flipping the sign of vertex 2 in the coboundary of edge
        # (2, 4), row 1 of d_0, breaks the triangles through (2, 4), and the
        # first of them, (2, 4, 5), is row 2 of degree 2.
        cochain_data = SimplicialComplex._cochain_data

        def flipped(self, start, labels):
            ranks, diffs = cochain_data(self, start, labels)
            assert diffs[0][1] == {0: -1}
            diffs[0][1] = {0: 1}
            return ranks, diffs

        monkeypatch.setattr(SimplicialComplex, "_cochain_data", flipped)
        octahedron = SimplicialComplex.from_facets(
            [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
        )
        with pytest.raises(CompositionNonzero) as raised:
            octahedron.cohomology()
        assert str(raised.value) == (
            "row 2 of d_1 * d_0 is not zero (degree 2, label ((2, 4, 5), None))"
        )


class TestCoefficients:
    def test_triangle_boundary_units(self):
        exprs = triangle_boundary().cohomology_with_coefficients("K*", reduced=False)
        assert exprs == [GroupExpr("K*", 1), GroupExpr("K*", 1)]

    def test_simplex(self):
        c = SimplicialComplex.from_facets([(1, 2, 3)])
        exprs = c.cohomology_with_coefficients("K*", reduced=False)
        assert exprs[0] == GroupExpr("K*", 1)
        assert all(e.is_trivial for e in exprs[1:])

    def test_rp2_degree_one_torsion_subgroup(self):
        c = SimplicialComplex.from_facets(RP2_FACETS)
        exprs = c.cohomology_with_coefficients("K*", reduced=True)
        # reduced degrees -1, 0, 1, 2
        assert exprs[2] == GroupExpr("K*", 0, (), (2,))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rp2_evaluation_matches_modular_cochain_oracle(self, m):
        c = SimplicialComplex.from_facets(RP2_FACETS)
        exprs = c.cohomology_with_coefficients("K*", reduced=True)
        ranks, diffs = [1] + [len(c.faces(d)) for d in range(3)], [
            d.to_lists() for d in c.cochain_complex(reduced=True)
        ]
        orders = modm_cohomology_orders(ranks, diffs, m)
        assert [math.prod(e.evaluate(m).invariant_factors) for e in exprs] == orders
        if m in (2, 3, 5):
            dims = modp_cohomology_dims(ranks, diffs, m)
            assert [len(e.evaluate(m).invariant_factors) for e in exprs] == dims

    def test_evaluation_at_integers_matches_cohomology(self):
        rng = make_rng(10)
        for _ in range(15):
            c = SimplicialComplex.from_facets(random_facets(rng))
            for reduced in (False, True):
                exprs = c.cohomology_with_coefficients("K*", reduced=reduced)
                groups = c.cohomology(reduced=reduced)
                assert [e.evaluate() for e in exprs] == groups
