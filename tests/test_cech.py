from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import binoids.cech
import binoids.simplicial
from binoids.binoid import (
    BinoidPresentation,
    DifferenceGroup,
    Relation,
    difference_group,
    from_simplicial,
    smash_free,
)
from binoids.cech import (
    CechComplex,
    local_picard_cech,
    local_picard_formula,
    local_picard_general,
    monomial_report,
    pic_open_subset,
    picard_complex_simplicial,
    stanley_reisner_cohomology,
)
from binoids.divisors import class_group
from binoids.errors import (
    CompositionNonzero,
    NotCancellative,
    NotIntegral,
    NotMonomialPresentation,
    NotOpen,
    NotPointed,
    NotPositive,
    Torsion,
    VoidComplex,
)
from binoids.exactalg import (
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    TRIVIAL_GROUP,
    cokernel,
    invariant_factors,
)
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import (
    PrimeIdeal,
    compute_spec,
    height,
    minimal_cover,
    nerve,
    punctured_spectrum,
    primes_of_height_at_most,
)

from fixtures import (
    CONE_RP2_FACETS,
    FAVOURITE_FACETS,
    TRIANGLE_BOUNDARY,
    TWO_TRIANGLES_AT_A_VERTEX,
    complete_graph_facets,
    cycle_facets,
    free_binoid,
    lattice_polygon,
    path_facets,
    quadric_cone,
    star_facets,
    xy_nz,
    xyzw,
    xyz_to_infinity,
    zero_dim_facets,
)
from oracles import (
    brute_link,
    brute_cover_edges,
    brute_spectrum,
    cech_on_opens,
    coordinate_cover_cech,
    brute_simplicial_cohomology,
    make_rng,
    mat_mul,
    polygon_cone_class_group,
    polygon_cone_facets,
    random_facets,
    unit_quotient_faults,
)

# edge vectors of a 10-gon with 20 lattice points (Cl = Z^7 on its cone)
TEN_GON_EDGES = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)]
TEN_GON_EDGES += [(-x, -y) for x, y in TEN_GON_EDGES]


# small presentations on three generators, quadric cones over points of a
# line, and over points of a 4 x 4 grid, most often not all of a polygon's
# lattice points, so that faces may span lattices with invariant factors > 1;
# the tests drop those that miss the hypotheses of the cell complex
integral_candidates = st.one_of(
    st.builds(
        BinoidPresentation,
        st.just(("a", "b", "c")),
        st.lists(
            st.tuples(*[st.tuples(*[st.integers(0, 3)] * 3)] * 2)
            .filter(lambda sides: sides[0] != sides[1])
            .map(lambda sides: Relation(*sides)),
            max_size=2,
        ).map(tuple),
    ),
    st.lists(st.integers(0, 6), min_size=2, max_size=5, unique=True).map(
        lambda xs: quadric_cone([(x,) for x in xs])
    ),
    st.lists(st.sampled_from(list(product(range(4), repeat=2))), min_size=3, max_size=5,
             unique=True).map(quadric_cone),
)


def with_relations(M, relations):
    return BinoidPresentation(M.generator_names, M.relations + tuple(relations))


def copy_generator(M, g, k, c):
    """M smashed with t1 and t2, where t1 is a copy of generator g: k g =
    k t1 and g + c t2 = t1 + c t2.  Γ sees g = t1, but for k > 1 the units
    at a prime through t2 and not g keep t1 - g, of order k."""
    n, g = M.generator_count, g % M.generator_count
    e = lambda i, x: tuple(x if j == i else 0 for j in range(n + 2))
    plus = lambda u, v: tuple(a + b for a, b in zip(u, v))
    shifted = plus(e(g, 1), e(n + 1, c)), plus(e(n, 1), e(n + 1, c))
    return with_relations(smash_free(M, 2), [Relation(e(g, k), e(n, k)), Relation(*shifted)])


# integral candidates smashed with a free generator t and given up to two
# relations u + c t = v + c t, c > 0, which a cancellative binoid would
# cancel to u = v; and integral candidates with a copy of one generator
not_cancellable = st.one_of(
    integral_candidates.flatmap(
        lambda M: st.lists(
            st.tuples(*[st.tuples(*[st.integers(0, 2)] * M.generator_count)] * 2,
                      st.integers(1, 2))
            .filter(lambda uvc: uvc[0] != uvc[1])
            .map(lambda uvc: Relation(uvc[0] + uvc[2:], uvc[1] + uvc[2:])),
            min_size=1,
            max_size=2,
        ).map(lambda extra: with_relations(smash_free(M, 1), extra))
    ),
    st.builds(copy_generator, integral_candidates, st.integers(0, 4), st.integers(1, 3),
              st.integers(1, 2)),
)

# x + z = y + z and 2 x = 2 y: at <z> the unit y - x has order 2
UNIT_OF_ORDER_TWO = BinoidPresentation(
    ("x", "y", "z"), (Relation((1, 0, 1), (0, 1, 1)), Relation((2, 0, 0), (0, 2, 0)))
)


def cx(facets):
    return SimplicialComplex.from_facets(facets)


# complexes on up to 7 vertices, and cones over RP^2 with the 7 vertices
# relabelled, whose Z/2 in degree 3 goes through the dense remainder
drawn_complexes = st.one_of(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(1, n), min_size=1, max_size=4).map(sorted).map(tuple),
            min_size=1,
            max_size=n + 2,
        )
    ),
    st.permutations(range(1, 8)).map(
        lambda order: [tuple(order[v - 1] for v in f) for f in CONE_RP2_FACETS]
    ),
).map(cx)


def punctured(delta):
    S = compute_spec(from_simplicial(delta))
    full = tuple(range(len(delta.vertices)))
    return {p for p in S.primes if p.generator_subset != full}


def free_gamma(n):
    return DifferenceGroup(n, IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)]))


def unit_basis(M, gamma, face):
    """Columns spanning the units of M_F: the images outside p_F, the union of
    the primes of the spectrum off F.

    The private helpers work on bitmasks and lists of rows; the basis comes
    back as an IntMatrix with one column per invariant factor.
    """
    S = compute_spec(M)
    prime = 0
    for p, mask in zip(S.primes, S._primes):
        if not set(p) & set(face):
            prime |= mask
    B, _, d = binoids.cech._unit_lattice(gamma, prime)
    return IntMatrix(len(B), len(d), tuple(map(tuple, B)))


def Z(r):
    return FinAbGroup(r)


def direct_sum(a, b):
    return FinAbGroup.from_torsion(
        a.invariant_factors + b.invariant_factors, a.free_rank + b.free_rank
    )


class TestCechComplexType:
    def test_rank_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CechComplex(
                ((("a", 0),), (("b", 0), ("b", 1))),
                (IntMatrix.from_rows([[0]]),),
            )

    def test_nonzero_composition_rejected(self):
        d0 = IntMatrix.from_rows([[1], [0]])
        d1 = IntMatrix.from_rows([[1, 1]])
        with pytest.raises(CompositionNonzero):
            CechComplex(
                ((("a", 0),), (("b", 0), ("b", 1)), (("c", 0),)),
                (d0, d1),
            )

    def test_nonzero_composition_names_degree_and_label(self):
        # d_1 * d_0 sends the one vertex coordinate to 2 at the triangle's coordinate
        labels = (
            (((1,), 1),),
            (((1, 2), 1), ((1, 3), 1)),
            (((1, 2, 3), 1),),
        )
        d0 = {0: {0: 1}, 1: {0: 1}}
        d1 = {0: {0: 1, 1: 1}}
        with pytest.raises(CompositionNonzero) as raised:
            CechComplex(labels, (d0, d1))
        assert str(raised.value) == (
            "row 0 of d_1 * d_0 is not zero (degree 2, label ((1, 2, 3), 1))"
        )

    def test_ranks(self):
        c = picard_complex_simplicial(cx(FAVOURITE_FACETS))
        assert c.ranks == (4, 8, 3)

    def test_cohomology_leaves_rows_as_they_were(self):
        # the reduction works on its own copy: the rows stay, and a second
        # call gives the same groups
        for facets in (FAVOURITE_FACETS, CONE_RP2_FACETS, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]):
            c = picard_complex_simplicial(cx(facets))
            kept = [{i: dict(row) for i, row in d.items()} for d in c._rows]
            first = c.cohomology()
            assert list(c._rows) == kept
            assert c.cohomology() == first
            assert list(c._rows) == kept


class TestPicardComplexSimplicial:
    def test_favourite_ranks_and_labels(self):
        c = picard_complex_simplicial(cx(FAVOURITE_FACETS))
        assert c.ranks == (4, 8, 3)
        assert c.labels_by_degree[0] == (
            ((1,), 1),
            ((2,), 2),
            ((3,), 3),
            ((4,), 4),
        )
        assert c.labels_by_degree[2] == (
            ((1, 2, 3), 1),
            ((1, 2, 3), 2),
            ((1, 2, 3), 3),
        )

    def test_single_vertex(self):
        c = picard_complex_simplicial(cx([(1,)]))
        assert c.ranks == (1,)
        assert c.differentials == ()

    def test_triangle_boundary_ranks(self):
        assert picard_complex_simplicial(cx(TRIANGLE_BOUNDARY)).ranks == (3, 6)

    def test_single_edge_differential(self):
        c = picard_complex_simplicial(cx([(1, 2)]))
        assert c.labels_by_degree[1] == (((1, 2), 1), ((1, 2), 2))
        assert c.differentials[0].to_lists() == [[-1, 0], [0, 1]]

    def test_void_complex(self):
        with pytest.raises(VoidComplex):
            picard_complex_simplicial(SimplicialComplex.void())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_layout_matches_the_definition(self, data):
        """Labels and differentials on vertices declared out of sorted order,
        some of them in no facet."""
        n = data.draw(st.integers(1, 7))
        labels = data.draw(st.permutations(range(1, n + 1)))
        face = st.lists(st.sampled_from(labels), min_size=1, max_size=min(n, 5), unique=True)
        facets = data.draw(st.lists(face, max_size=n + 2))
        c = picard_complex_simplicial(SimplicialComplex.make(labels, facets))
        expected_labels, expected_diffs = coordinate_cover_cech(labels, facets)
        assert [list(degree) for degree in c.labels_by_degree] == expected_labels
        assert [d.to_lists() for d in c.differentials] == expected_diffs

    def test_composition_zero_on_randoms(self):
        rng = make_rng(21)
        for _ in range(15):
            c = picard_complex_simplicial(cx(random_facets(rng, 6)))
            for a, b in zip(c.differentials, c.differentials[1:]):
                assert (b * a).is_zero()


class TestLocalPicardFormula:
    def test_favourite(self):
        assert local_picard_formula(cx(FAVOURITE_FACETS)) == [
            TRIVIAL_GROUP,
            Z(1),
            TRIVIAL_GROUP,
        ]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_star_graph(self, n):
        assert local_picard_formula(cx(star_facets(n)))[1] == Z(n - 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cycle(self, n):
        assert local_picard_formula(cx(cycle_facets(n))) == [TRIVIAL_GROUP, Z(n)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complete_graph(self, n):
        got = local_picard_formula(cx(complete_graph_facets(n)))
        assert got == [TRIVIAL_GROUP, Z(n * (n - 2))]

    def test_zero_dimensional(self):
        assert local_picard_formula(cx(zero_dim_facets(4))) == [Z(4)]

    def test_cone_over_projective_plane(self):
        assert local_picard_formula(cx(CONE_RP2_FACETS)) == [
            TRIVIAL_GROUP,
            TRIVIAL_GROUP,
            TRIVIAL_GROUP,
            FinAbGroup(0, (2,)),
        ]

    def test_simplex_trivial(self):
        assert all(g.is_trivial for g in local_picard_formula(cx([(1, 2, 3)])))

    def test_void(self):
        with pytest.raises(VoidComplex):
            local_picard_formula(SimplicialComplex.void())

    def test_graph_degree_count(self):
        rng = make_rng(22)
        for _ in range(20):
            n = rng.randint(2, 7)
            edges = {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(0, n * 2))
            }
            vertices = list(range(1, n + 1))
            delta = SimplicialComplex.make(vertices, list(edges))
            got = local_picard_formula(delta)
            degree = {v: 0 for v in vertices}
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            isolated = sum(1 for v in vertices if degree[v] == 0)
            assert got[0] == Z(isolated)
            if len(got) > 1:
                expected = sum(degree[v] - 1 for v in vertices if degree[v] > 0)
                assert got[1] == Z(expected)

    def test_low_degrees_free_and_high_degrees_vanish(self):
        rng = make_rng(23)
        for _ in range(15):
            delta = cx(random_facets(rng, 6))
            groups = local_picard_formula(delta)
            assert len(groups) == delta.dimension + 1
            assert groups[0].invariant_factors == ()
            if len(groups) > 1:
                assert groups[1].invariant_factors == ()

    def test_flipped_sign_names_face_and_label(self, monkeypatch):
        # ∂β₄, antipodes 1/2, 3/4, 5/6, 7/8: w_5 = 1, so vertex 5 keeps the
        # faces through 2 and 5.  Flipping the sign of ((2, 5), 5) in the
        # coboundary of ((2, 4, 5), 5), row 14 of degree 2, breaks its
        # cofaces of label 5, (2, 4, 5, 7) and (2, 4, 5, 8); the first is
        # row 18 of degree 3, after 4 cells of label 1, 12 on (2, 3, y, z)
        # and those of labels 2 and 4 on (2, 4, 5, 7).
        cochain_data = SimplicialComplex._cochain_data

        def flipped(self, start, labels):
            ranks, diffs = cochain_data(self, start, labels)
            assert diffs[1][14] == {4: -1}
            diffs[1][14] = {4: 1}
            return ranks, diffs

        monkeypatch.setattr(SimplicialComplex, "_cochain_data", flipped)
        cross = [tuple(2 * i + 1 + s for i, s in enumerate(signs))
                 for signs in product((0, 1), repeat=4)]
        with pytest.raises(CompositionNonzero) as raised:
            local_picard_formula(cx(cross))
        assert str(raised.value) == (
            "row 18 of d_2 * d_1 is not zero (degree 3, label ((2, 4, 5, 7), 5))"
        )


# vertex labels in shuffled order with facets that may leave some out, and
# cones over RP^2 relabelled: isolated vertices have the link {∅}, and the
# apex of the cone has the link RP^2 with its Z/2
formula_inputs = st.one_of(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)),
            st.lists(
                st.sets(st.integers(1, n), min_size=1, max_size=4).map(sorted),
                max_size=n + 1,
            ),
        )
    ),
    st.permutations(range(1, 8)).map(
        lambda order: (
            list(order),
            [[order[v - 1] for v in f] for f in CONE_RP2_FACETS],
        )
    ),
)



class TestLocalPicardFormulaAgainstLinks:
    @settings(max_examples=80, deadline=None)
    @given(formula_inputs)
    def test_direct_sum_of_brute_link_cohomology(self, drawn):
        labels, facets = drawn
        delta = SimplicialComplex.make(labels, facets)
        spanned = list(facets) + [(v,) for v in labels]
        expected = [TRIVIAL_GROUP] * (delta.dimension + 1)
        for v in labels:
            link = brute_link(spanned, {v})
            link_facets = [tuple(sorted(g)) for g in link if not any(g < h for h in link)]
            link_vertices = sorted(set().union(*link))
            reduced = brute_simplicial_cohomology(link_vertices, link_facets, reduced=True)
            for j, group in enumerate(reduced):  # H~^(j-1)(lk v) lands in degree j
                expected[j] = direct_sum(expected[j], FinAbGroup(*group))
        assert local_picard_formula(delta) == expected


class TestLocalPicardFormulaComplex:
    """The formula reduces one complex, outside dl v ∪ st w_v for every v,
    after one d∘d = 0 check, and builds no link."""

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

        def no_link(self, face):
            raise AssertionError("link() called")

        monkeypatch.setattr(binoids.simplicial, "_reduce_complex", capture)
        monkeypatch.setattr(binoids.simplicial, "_sparse_complex", count)
        monkeypatch.setattr(SimplicialComplex, "link", no_link)
        return handed

    def test_octahedron(self, handed):
        # each vertex keeps, of its link (a 4-cycle), the vertex and the two
        # edges outside the star of the vertex sharing the most facets with it
        facets = [tuple(i + 3 * s for i, s in zip(range(1, 4), signs))
                  for signs in product((0, 1), repeat=3)]
        assert local_picard_formula(cx(facets)) == [TRIVIAL_GROUP, TRIVIAL_GROUP, Z(6)]
        assert handed == [[0, 6, 12]]

    def test_cone_over_projective_plane(self, handed):
        groups = local_picard_formula(cx(CONE_RP2_FACETS))
        assert groups == [TRIVIAL_GROUP] * 3 + [FinAbGroup(0, (2,))]
        assert handed == [[0, 0, 5, 5]]

    def test_ties_go_to_the_first_vertex(self, handed):
        # 3 shares one facet with each of 1, 2 and 4; w_3 = 1 leaves only
        # (3, 4), where w_3 = 4 would leave (1, 3), (2, 3) and (1, 2, 3)
        assert local_picard_formula(cx(FAVOURITE_FACETS)) == [TRIVIAL_GROUP, Z(1), TRIVIAL_GROUP]
        assert handed == [[0, 1, 0]]


class TestLocalPicardCech:
    def test_triangle_boundary(self):
        assert local_picard_cech(cx(TRIANGLE_BOUNDARY)) == [TRIVIAL_GROUP, Z(3)]

    def test_simplex(self):
        assert all(g.is_trivial for g in local_picard_cech(cx([(1, 2, 3)])))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_path_graph(self, n):
        got = local_picard_cech(cx(path_facets(n)))
        assert got == [TRIVIAL_GROUP, Z(n - 2)]

    def test_matches_formula_on_randoms(self):
        rng = make_rng(24)
        for _ in range(20):
            delta = cx(random_facets(rng, 6))
            assert local_picard_cech(delta) == local_picard_formula(delta)

    @settings(max_examples=40, deadline=None)
    @given(drawn_complexes)
    def test_matches_formula_on_drawn_complexes(self, delta):
        assert local_picard_cech(delta) == local_picard_formula(delta)

    def test_matches_formula_with_torsion(self):
        delta = cx(CONE_RP2_FACETS)
        assert local_picard_cech(delta) == local_picard_formula(delta)

    def test_cross_polytope_6_at_scale(self):
        # boundary of the 6-cross-polytope, vertex i antipodal to i + 6
        facets = [
            tuple(i + 6 * s for i, s in zip(range(1, 7), signs))
            for signs in product((0, 1), repeat=6)
        ]
        delta = cx(facets)
        assert picard_complex_simplicial(delta).ranks == (12, 120, 480, 960, 960, 384)
        expected = [TRIVIAL_GROUP] * 5 + [Z(12)]
        assert local_picard_formula(delta) == expected
        assert local_picard_cech(delta) == expected


class TestConstantCohomology:
    def test_circle(self):
        assert cx(TRIANGLE_BOUNDARY).cohomology() == [Z(1), Z(1)]

    def test_favourite_cover_nerve(self):
        M = from_simplicial(cx(FAVOURITE_FACETS))
        S = compute_spec(M)
        U = set().union(
            *(
                {p for p in S.primes if set(sup).isdisjoint(p.generator_subset)}
                for sup in [(0,), (1, 2), (2, 3)]
            )
        )
        assert nerve(S, minimal_cover(S, U)).cohomology() == [Z(2), TRIVIAL_GROUP]

    def test_single_open(self):
        M = from_simplicial(cx(FAVOURITE_FACETS))
        S = compute_spec(M)
        U = {p for p in S.primes if 3 not in p.generator_subset}
        assert nerve(S, minimal_cover(S, U)).cohomology() == [Z(1)]

    def test_not_open(self):
        M = from_simplicial(cx(FAVOURITE_FACETS))
        S = compute_spec(M)
        with pytest.raises(NotOpen):
            nerve(S, minimal_cover(S, {PrimeIdeal((0, 1, 2, 3))})).cohomology()


class TestPicOpenSubset:
    def test_two_triangles_weil_locus(self):
        delta = cx(TWO_TRIANGLES_AT_A_VERTEX)
        S = compute_spec(from_simplicial(delta))
        W = primes_of_height_at_most(S, 1)
        groups = pic_open_subset(delta, W)
        assert groups[1].is_trivial

    def test_favourite_weil_locus(self):
        delta = cx(FAVOURITE_FACETS)
        S = compute_spec(from_simplicial(delta))
        W = primes_of_height_at_most(S, 1)
        assert sorted(
            (len(p.generator_subset), p.generator_subset) for p in W
        ) == [
            (1, (3,)),
            (2, (0, 1)),
            (2, (0, 3)),
            (2, (1, 3)),
            (2, (2, 3)),
            (3, (0, 1, 2)),
        ]
        assert pic_open_subset(delta, W) == [Z(1), TRIVIAL_GROUP, TRIVIAL_GROUP]

    def test_triangle_boundary_weil_is_punctured(self):
        delta = cx(TRIANGLE_BOUNDARY)
        S = compute_spec(from_simplicial(delta))
        W = primes_of_height_at_most(S, 1)
        assert W == {p for p in S.primes if len(p.generator_subset) < 3}
        assert pic_open_subset(delta, W)[1] == Z(3)

    def test_punctured_spectrum_equals_formula(self):
        rng = make_rng(25)
        for _ in range(15):
            delta = cx(random_facets(rng, 6))
            assert pic_open_subset(delta, punctured(delta)) == local_picard_formula(delta)

    @settings(max_examples=40, deadline=None)
    @given(drawn_complexes)
    def test_punctured_spectrum_on_drawn_complexes(self, delta):
        assert pic_open_subset(delta, punctured(delta)) == local_picard_formula(delta)

    def test_weil_locus_of_curves_gives_local_picard(self):
        rng = make_rng(26)
        seen = 0
        while seen < 10:
            delta = cx(random_facets(rng, 6))
            if delta.dimension != 1:
                continue
            seen += 1
            S = compute_spec(from_simplicial(delta))
            W = primes_of_height_at_most(S, 1)
            got = pic_open_subset(delta, W)
            assert got[1] == local_picard_formula(delta)[1]

    def test_not_open(self):
        delta = cx(FAVOURITE_FACETS)
        with pytest.raises(NotOpen):
            pic_open_subset(delta, {PrimeIdeal((0, 1, 2, 3))})


class TestStanleyReisnerCohomology:
    def test_triangle_boundary(self):
        got = stanley_reisner_cohomology(cx(TRIANGLE_BOUNDARY), "K*")
        assert got[0] == (GroupExpr("K*", 1), TRIVIAL_GROUP)
        assert got[1] == (GroupExpr("K*", 1), Z(3))

    def test_simplex(self):
        got = stanley_reisner_cohomology(cx([(1, 2, 3)]), "K*")
        assert got[0] == (GroupExpr("K*", 1), TRIVIAL_GROUP)
        for expr, part in got[1:]:
            assert expr == GroupExpr("K*", 0)
            assert part.is_trivial

    def test_zero_dimensional(self):
        got = stanley_reisner_cohomology(cx(zero_dim_facets(3)), "K*")
        assert got == [(GroupExpr("K*", 3), Z(3))]

    def test_cone_over_projective_plane_split(self):
        got = stanley_reisner_cohomology(cx(CONE_RP2_FACETS), "K*")
        assert got[0] == (GroupExpr("K*", 1), TRIVIAL_GROUP)
        assert got[3] == (GroupExpr("K*", 0), FinAbGroup(0, (2,)))

    def test_integer_part_is_the_formula(self):
        rng = make_rng(27)
        for _ in range(10):
            delta = cx(random_facets(rng, 6))
            got = stanley_reisner_cohomology(delta, "K*")
            assert [part for _, part in got] == local_picard_formula(delta)


class TestUnitsOfLocalization:
    def test_xyzw_single_variable(self):
        M = xyzw()
        gamma = difference_group(M)
        units = unit_basis(M, gamma, (0,))
        assert units.cols == 1
        col = units.column(0)
        assert col in (gamma.images.column(0), tuple(-v for v in gamma.images.column(0)))

    def test_xyzw_diagonal_pair_is_everything(self):
        M = xyzw()
        units = unit_basis(M, difference_group(M), (0, 1))
        assert units.cols == 3
        assert cokernel(units).is_trivial

    def test_xyzw_mixed_pair(self):
        M = xyzw()
        units = unit_basis(M, difference_group(M), (0, 2))
        assert units.cols == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_xy_nz_pair(self, n):
        M = xy_nz(n)
        units = unit_basis(M, difference_group(M), (0, 1))
        assert units.cols == 2
        assert cokernel(units).is_trivial

    def test_xy_nz_single(self):
        M = xy_nz(3)
        gamma = difference_group(M)
        units = unit_basis(M, gamma, (0,))
        assert units.cols == 1
        col = units.column(0)
        assert col in (gamma.images.column(0), tuple(-v for v in gamma.images.column(0)))

    def test_free_binoid_full_face(self):
        M = free_binoid(3)
        units = unit_basis(M, difference_group(M), (0, 1, 2))
        assert units.cols == 3
        assert cokernel(units).is_trivial

    def test_simplicial_faces_have_coordinate_units(self):
        M = from_simplicial(cx(FAVOURITE_FACETS))
        gamma = free_gamma(4)
        for face in [(0,), (2, 3), (0, 1, 2)]:
            units = unit_basis(M, gamma, face)
            assert units.cols == len(face)
            for j in range(units.cols):
                col = units.column(j)
                assert all(v == 0 for i, v in enumerate(col) if i not in face)
            square = IntMatrix.from_rows(
                [list(units.entries[i]) for i in face], cols=units.cols
            )
            assert cokernel(square).is_trivial

    def test_free_binoid_single_generator(self):
        M = free_binoid(1)
        units = unit_basis(M, difference_group(M), (0,))
        assert units.cols == 1
        assert cokernel(units).is_trivial


class TestLocalPicardGeneral:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_x_plus_y_equals_nz(self, n):
        result = local_picard_general(xy_nz(n))
        assert result.cover == ((0,), (1,))
        assert result.cech.ranks == (2, 2)
        assert result.groups[0] == TRIVIAL_GROUP
        assert result.groups[1] == class_group(xy_nz(n)) == FinAbGroup.from_torsion([n])

    def test_x_plus_y_equals_z_plus_w(self):
        result = local_picard_general(xyzw())
        assert result.cover == ((0,), (1,), (2,), (3,))
        # one cell per punctured prime: 4 rays, 4 walls and the cone itself
        assert result.cech.ranks == (4, 8, 3)
        # global units of the punctured spectrum vanish: the four
        # single-variable unit groups intersect in 0
        assert result.groups[0] == TRIVIAL_GROUP
        assert result.groups[1] == Z(1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smashed_normal_surface(self, n):
        result = local_picard_general(smash_free(xy_nz(n), 1))
        assert result.cover == ((0,), (1,), (3,))
        assert result.cech.ranks == (3, 6, 3)
        assert result.groups[0].is_trivial
        assert result.groups[1].is_trivial

    def test_free_binoid(self):
        result = local_picard_general(free_binoid(2))
        assert result.groups == (TRIVIAL_GROUP, TRIVIAL_GROUP)

    def test_two_relations_with_torsion(self):
        # 2a + d = 2c, a + 3c = 2b
        M = BinoidPresentation(
            ("a", "b", "c", "d"),
            (Relation((2, 0, 0, 1), (0, 0, 2, 0)), Relation((1, 0, 3, 0), (0, 2, 0, 0))),
        )
        assert local_picard_general(M).groups[1] == FinAbGroup(0, (4,))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_cone_over_rational_normal_curve(self, d):
        # g_i + g_j = g_k + g_l whenever i + j = k + l; Cl = Z/d classically
        M = quadric_cone([(i,) for i in range(d + 1)])
        expected = FinAbGroup.from_torsion([d])
        assert class_group(M) == expected
        assert local_picard_general(M).groups[1] == expected

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
            [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
            + [(1, 1), (2, 1), (1, 2), (2, 2)],
            [(x, y) for x in range(3) for y in range(3)],
            lattice_polygon(TEN_GON_EDGES),  # 20 generators, 387 relations
        ],
        ids=["hexagon", "octagon", "square", "10-gon"],
    )
    def test_cone_over_lattice_polygon(self, points):
        # every lattice point at height 1, all relations p + q = r + s
        free, factors = polygon_cone_class_group(points)
        expected = FinAbGroup(free, factors)
        M = quadric_cone(points)
        assert class_group(M) == expected
        assert local_picard_general(M).groups[1] == expected

    def test_cone_over_twelve_gon(self):
        # 31 generators and 1,536 relations: 2^31 generator subsets, 26 primes
        points = lattice_polygon(TEN_GON_EDGES + [(-1, 1), (1, -1)])
        M = quadric_cone(points)
        assert (M.generator_count, len(M.relations)) == (31, 1536)
        m = len(polygon_cone_facets(points))  # the polygon's edges
        S = compute_spec(M)
        assert len(S.primes) == 2 * m + 2
        heights = [height(S, p) for p in S.primes]
        assert [heights.count(h) for h in range(4)] == [1, m, m, 1]
        free, factors = polygon_cone_class_group(points)
        assert (free, factors) == (9, ())
        assert class_group(M) == FinAbGroup(free, factors)

    @settings(max_examples=60, deadline=None)
    @given(integral_candidates, st.integers(0, 2))
    # the triangle without (1, 1): a restriction divides by an invariant factor 2
    @example(quadric_cone([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]), 0)
    def test_restriction_blocks_solve_the_bases(self, M, k):
        # the facets of a cell are the cells one degree down on a subset of its
        # rays, with signs +-1, and the restriction X from a facet J into a
        # cell K solves B_K * X = B_J, the bases of the primes off their rays
        M = smash_free(M, k) if k else M
        handed = {}
        build = binoids.cech._cech_complex

        def capture(cells, coordinates, restriction, facets):
            handed.update(cells=cells, restriction=restriction, facets=facets)
            return build(cells, coordinates, restriction, facets)

        with mock.patch.object(binoids.cech, "_cech_complex", capture):
            try:
                result = local_picard_general(M)
            except (NotCancellative, NotPointed, NotPositive, Torsion):
                assume(False)  # outside the hypotheses of the cell complex
        S = compute_spec(M)
        assert result.cover == tuple(minimal_cover(S, punctured_spectrum(S)))
        gamma = difference_group(M)
        face = lambda J: {i for j in J for i in result.cover[j]}
        cells = handed["cells"]
        for lower, upper in zip(cells, cells[1:]):
            for K in upper:
                facets = handed["facets"](K)
                assert sorted(J for J, _ in facets) == [J for J in lower if set(J) < set(K)]
                assert {sign for _, sign in facets} <= {1, -1}
                basis = unit_basis(M, gamma, face(K))
                for J, _ in facets:
                    sub = unit_basis(M, gamma, face(J))
                    X = [[0] * sub.cols for _ in range(basis.cols)]
                    for a, b, x in handed["restriction"](J, K):
                        X[a][b] = x
                    assert mat_mul(basis.to_lists(), X) == sub.to_lists()

    @settings(max_examples=100, deadline=None)
    @given(integral_candidates, st.integers(0, 2))
    @example(quadric_cone([(x, y) for x in range(3) for y in range(3)]), 1)
    def test_agrees_with_cech_on_opens(self, M, k):
        # the Čech complex on all 2^k - 1 intersections of the cover, built by
        # the oracle, has the same groups up to trailing zeros
        M = smash_free(M, k) if k else M
        try:
            result = local_picard_general(M)
        except (NotCancellative, NotPointed, NotPositive, Torsion):
            assume(False)
        assume(len(result.cover) <= 6)  # at most 63 opens for the oracle
        relations = [(rel.lhs, rel.rhs) for rel in M.relations]
        expected = cech_on_opens(M.generator_count, relations)
        got = [(g.free_rank, g.invariant_factors) for g in result.groups]
        while expected and expected[-1] == (0, ()):
            expected.pop()
        while got and got[-1] == (0, ()):
            got.pop()
        assert got == expected

    @pytest.mark.parametrize(
        "M",
        [
            quadric_cone([(0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]),
            quadric_cone([(x, y) for x in range(3) for y in range(3)]),
            quadric_cone(lattice_polygon(TEN_GON_EDGES)),
            smash_free(quadric_cone([(x, y) for x in range(3) for y in range(3)]), 1),
            # the cone over the unit cube: its 3-cell has six square facets
            quadric_cone([(x, y, z) for x in range(2) for y in range(2) for z in range(2)]),
            *[quadric_cone([(i,) for i in range(d + 1)]) for d in (2, 5, 9)],
            *[free_binoid(n) for n in (1, 3, 6)],
            xyzw(),
            smash_free(xyzw(), 2),
        ],
        ids=["hexagon", "square", "10-gon", "square+1", "cube", "rnc2", "rnc5", "rnc9",
             "free1", "free3", "free6", "xyzw", "xyzw+2"],
    )
    def test_cells_form_a_ball(self, M):
        # with one Z per cell and identity restrictions the complex is the
        # cellular cochain complex of the cone's cross-section, a ball, so this
        # checks the incidence signs apart from the lattices
        _, cells, cell = binoids.cech._cell_complex(compute_spec(M))
        cech = binoids.cech._cech_complex(cells, lambda J: (0,), None, lambda K: cell[K][1])
        assert cech.cohomology() == [Z(1)] + [TRIVIAL_GROUP] * (len(cells) - 1)

    def test_exact_work_done_once(self, monkeypatch):
        # x+y=z+w smashed with t: one Smith form per punctured prime and one
        # block solve per Hasse edge below the maximal ideal, both counted on
        # the spectrum of all 2^5 subsets
        primes = [frozenset(p) for p in brute_spectrum(5, [((0, 1), (2, 3))], [])]
        punctured = [p for p in primes if len(p) < 5]
        edges = brute_cover_edges(punctured)
        assert (len(punctured), len(edges)) == (19, 37)

        lattices, solved = [], []
        smith, divide = binoids.cech._smith, binoids.cech._divide

        def recording_smith(rows, n, *transforms):
            lattices.append(len(rows))
            return smith(rows, n, *transforms)

        def recording_divide(U, d, C):
            solved.append(len(d))
            return divide(U, d, C)

        monkeypatch.setattr(binoids.cech, "_smith", recording_smith)
        monkeypatch.setattr(binoids.cech, "_divide", recording_divide)
        result = local_picard_general(smash_free(xyzw(), 1))
        assert result.groups == (TRIVIAL_GROUP,) * 4
        assert len(lattices) == len(punctured)
        assert len(solved) == len(edges)

    def test_inclusion_blocks_injective(self):
        # the block from each facet J into a cell K embeds J's units in K's
        result = local_picard_general(xyzw())
        labels = result.cech.labels_by_degree
        for k, diff in enumerate(result.cech.differentials):
            facets = sorted({lab[0] for lab in labels[k]})
            for K in sorted({lab[0] for lab in labels[k + 1]}):
                rows = [i for i, lab in enumerate(labels[k + 1]) if lab[0] == K]
                for J in (J for J in facets if set(J) < set(K)):
                    cols = [i for i, lab in enumerate(labels[k]) if lab[0] == J]
                    block = IntMatrix.from_rows(
                        [[diff.entry(r, c) for c in cols] for r in rows],
                        cols=len(cols),
                    )
                    assert len(invariant_factors(block)) == len(cols)

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            local_picard_general(xyz_to_infinity())

    def test_not_cancellative(self):
        # a + d = b + c, 2a = c + d: 3d = 2b + c holds in the difference
        # group but not in the binoid
        M = BinoidPresentation(
            ("a", "b", "c", "d"),
            (Relation((1, 0, 0, 1), (0, 1, 1, 0)), Relation((2, 0, 0, 0), (0, 0, 1, 1))),
        )
        with pytest.raises(NotCancellative, match="<a,c>"):
            local_picard_general(M)

    def test_units_with_torsion_at_a_prime(self):
        # the primes are the face complements, but Z^{x,y} / (2x - 2y), the
        # units at <z>, has torsion, which the lattice of x and y in Γ lacks
        with pytest.raises(NotCancellative) as raised:
            local_picard_general(UNIT_OF_ORDER_TWO)
        assert str(raised.value) == (
            "not cancellative: the units at the prime <z> are not the lattice "
            "the generators outside it span in the difference group"
        )

    def test_units_of_too_high_rank_at_a_prime(self):
        # x + t = y + t: at <t> the units Z^{x,y} have rank 2 and the lattice
        # of x = y rank 1.  The face check sees this first (<x,t> is a prime
        # off no face), so the rank half of the units check is called alone
        M = BinoidPresentation(("x", "y", "t"), (Relation((1, 0, 1), (0, 1, 1)),))
        S, gamma = compute_spec(M), difference_group(M)
        punctured = S._primes[:-1]
        ranks = {m: len(binoids.cech._unit_lattice(gamma, m)[2]) for m in punctured}
        with pytest.raises(NotCancellative, match="the units at the prime <t> "):
            binoids.cech._check_units(M, S, ranks)
        with pytest.raises(NotCancellative, match="<x,t> are not the generators on a face"):
            local_picard_general(M)

    def test_units_of_a_non_cancellative_binoid_that_are_the_lattices(self):
        # x + y = 2x = 2y with x != y is not cancellative, but its units at
        # every prime are the lattices, so it gets the groups of its
        # cancellative quotient, the free binoid on x = y and z
        M = BinoidPresentation(
            ("x", "y", "z"), (Relation((1, 1, 0), (2, 0, 0)), Relation((1, 1, 0), (0, 2, 0)))
        )
        assert unit_quotient_faults(3, [(rel.lhs, rel.rhs) for rel in M.relations]) == []
        assert local_picard_general(M).groups == local_picard_general(free_binoid(2)).groups

    @settings(max_examples=150, deadline=None)
    @given(not_cancellable)
    @example(UNIT_OF_ORDER_TWO)
    def test_no_answer_where_the_units_are_not_the_lattices(self, M):
        faults = unit_quotient_faults(M.generator_count, [(r.lhs, r.rhs) for r in M.relations])
        try:
            local_picard_general(M)
        except NotCancellative as error:  # the face check may come first
            if "units at the prime" in str(error):  # the first fault, in spectrum order
                names = M.generator_names
                assert faults and "<%s>" % ",".join(names[i] for i in faults[0]) in str(error)
            return
        except (NotPointed, NotPositive, Torsion):
            assume(False)
        assert faults == []


class TestMonomialReport:
    def test_non_radical_example(self):
        M = BinoidPresentation(
            ("x", "y", "z"),
            (Relation((2, 1, 3), None), Relation((1, 2, 2), None)),
        )
        report = monomial_report(M)
        assert report.complex.facets == (("x", "y"), ("x", "z"), ("y", "z"))
        assert not report.is_radical
        assert report.degrees[1] == (GroupExpr("K*", 1), Z(3))
        assert report.nonvanishing_h1
        assert report.unipotent_part == "NOT COMPUTED"

    def test_squarefree_is_radical(self):
        report = monomial_report(xyz_to_infinity())
        assert report.is_radical
        assert report.degrees == tuple(
            stanley_reisner_cohomology(report.complex, "K*")
        )

    def test_zero_dimensional_radical(self):
        M = BinoidPresentation(
            ("x", "y"), (Relation((2, 1), None), Relation((1, 3), None))
        )
        report = monomial_report(M)
        assert report.complex.dimension == 0
        assert not report.nonvanishing_h1

    def test_rejects_element_relations(self):
        with pytest.raises(NotMonomialPresentation):
            monomial_report(xy_nz(2))
