"""Acceptance gate: the ten headline guarantees, one test per line.

Run with ``pytest tests/test_acceptance.py -v`` to get a single
pass/fail line per criterion.  Everything here is desk scale; the
expected values are frozen and the property checks use the independent
oracles from ``oracles.py``.
"""

import random
from itertools import combinations

from binoids.binoid import from_simplicial, smash_free
from binoids.cech import (
    local_picard_cech,
    local_picard_formula,
    local_picard_general,
    monomial_report,
    pic_open_subset,
    picard_complex_simplicial,
    stanley_reisner_cohomology,
)
from binoids.divisors import class_group
from binoids.exactalg import (
    TRIVIAL_GROUP,
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    smith_normal_form,
)
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import (
    compute_spec,
    nerve,
    primes_of_height_at_most,
    punctured_spectrum,
)
from binoids.binoid import BinoidPresentation, Relation

from fixtures import (
    CONE_RP2_FACETS,
    FAVOURITE_FACETS,
    TRIANGLE_BOUNDARY,
    TWO_TRIANGLES_AT_A_VERTEX,
    complete_graph_facets,
    cycle_facets,
    free_binoid,
    path_facets,
    star_facets,
    two_x_three_y,
    xy_nz,
    xyz_to_infinity,
    xyzw,
    zero_dim_facets,
)
from oracles import det_int, make_rng, modp_cohomology_dims, random_facets


def cx(facets):
    return SimplicialComplex.from_facets(facets)


def Z(r):
    return FinAbGroup(r)


XYZW_PRIMES = {
    (),
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 3),
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1, 2, 3),
    (0, 1, 2, 3),
}


def test_criterion_01_spectrum_enumeration():
    assert {p.generator_subset for p in compute_spec(xyzw()).primes} == XYZW_PRIMES

    free3 = {p.generator_subset for p in compute_spec(free_binoid(3)).primes}
    power_set = {
        subset for size in range(4) for subset in combinations(range(3), size)
    }
    assert free3 == power_set

    assert {p.generator_subset for p in compute_spec(two_x_three_y()).primes} == {
        (),
        (0, 1),
    }


def test_criterion_02_simplicial_formula():
    assert local_picard_formula(cx(TRIANGLE_BOUNDARY)) == [TRIVIAL_GROUP, Z(3)]

    favourite = local_picard_formula(cx(FAVOURITE_FACETS))
    assert favourite[0] == TRIVIAL_GROUP and favourite[1] == Z(1)
    assert all(g.is_trivial for g in favourite[2:])

    for n in range(3, 9):
        assert local_picard_formula(cx(star_facets(n)))[1] == Z(n - 2)
        assert local_picard_formula(cx(cycle_facets(n)))[1] == Z(n)
    for n in range(3, 7):
        assert local_picard_formula(cx(complete_graph_facets(n)))[1] == Z(n * (n - 2))
    for n in range(1, 7):
        assert local_picard_formula(cx(zero_dim_facets(n))) == [Z(n)]


def test_criterion_03_torsion_example():
    groups = local_picard_formula(cx(CONE_RP2_FACETS))
    assert groups == [TRIVIAL_GROUP, TRIVIAL_GROUP, TRIVIAL_GROUP, FinAbGroup(0, (2,))]


def test_criterion_04_cech_equals_formula():
    fixed = (
        [TRIANGLE_BOUNDARY, FAVOURITE_FACETS, CONE_RP2_FACETS]
        + [star_facets(n) for n in range(3, 9)]
        + [cycle_facets(n) for n in range(3, 9)]
        + [complete_graph_facets(n) for n in range(3, 7)]
        + [zero_dim_facets(n) for n in range(1, 7)]
    )
    rng = make_rng(414)
    samples = [cx(facets) for facets in fixed]
    samples += [cx(random_facets(rng)) for _ in range(50)]
    for delta in samples:
        assert local_picard_cech(delta) == local_picard_formula(delta)


def test_criterion_05_general_cech():
    two = local_picard_general(xy_nz(2))
    assert two.groups == (TRIVIAL_GROUP, FinAbGroup(0, (2,)))
    assert two.cech.ranks == (2, 2)
    # degree 0 splits as two rank-1 unit groups, one per basic open
    blocks = [sum(1 for J, _ in two.cech.labels_by_degree[0] if J == (i,)) for i in (0, 1)]
    assert blocks == [1, 1]

    four_gen = local_picard_general(xyzw())
    assert four_gen.groups[0] == TRIVIAL_GROUP
    assert four_gen.groups[1] == Z(1)
    assert four_gen.cech.ranks == (4, 8, 3)

    for n in (2, 3, 4):
        smashed = local_picard_general(smash_free(xy_nz(n), 1))
        assert smashed.groups[0].is_trivial and smashed.groups[1].is_trivial


def test_criterion_06_class_groups():
    for n in range(1, 7):
        assert class_group(xy_nz(n)) == FinAbGroup.from_torsion([n])
    assert class_group(xyzw()) == Z(1)
    assert class_group(free_binoid(2)).is_trivial
    assert class_group(free_binoid(3)).is_trivial

    originals = [xy_nz(2), xy_nz(5), xyzw(), free_binoid(2)]
    for M in originals:
        assert class_group(smash_free(M, 1)) == class_group(M)
    assert class_group(smash_free(xy_nz(3), 2)) == class_group(xy_nz(3))


def test_criterion_07_stanley_reisner():
    unit = GroupExpr("K*", 1)
    triangle = stanley_reisner_cohomology(cx(TRIANGLE_BOUNDARY))
    assert triangle[0] == (unit, TRIVIAL_GROUP)
    assert triangle[1] == (unit, Z(3))

    simplex = stanley_reisner_cohomology(cx([(1, 2, 3, 4)]))
    assert simplex[0] == (unit, TRIVIAL_GROUP)
    for constant, integer in simplex[1:]:
        assert constant.is_trivial and integer.is_trivial

    rng = make_rng(707)
    for _ in range(50):
        delta = cx(random_facets(rng))
        degrees = stanley_reisner_cohomology(delta)
        assert [g for _, g in degrees] == local_picard_formula(delta)

    # evaluating the symbolic part at K* = Z/p matches mod-p cochain cohomology
    evaluated = [cx(TRIANGLE_BOUNDARY), cx(CONE_RP2_FACETS), cx(FAVOURITE_FACETS)]
    evaluated += [cx(random_facets(rng)) for _ in range(10)]
    for delta in evaluated:
        ranks = [len(delta.faces(d)) for d in range(delta.dimension + 1)]
        diffs = [d.to_lists() for d in delta.cochain_complex()]
        degrees = stanley_reisner_cohomology(delta)
        for p in (2, 3, 5):
            dims = modp_cohomology_dims(ranks, diffs, p)
            for j, (constant, _) in enumerate(degrees):
                assert constant.evaluate(p) == FinAbGroup.from_torsion([p] * dims[j])


def _weil_locus(delta):
    S = compute_spec(from_simplicial(delta))
    return delta, primes_of_height_at_most(S, 1) & punctured_spectrum(S)


def test_criterion_08_pic_of_open_subsets():
    delta, weil = _weil_locus(cx(TWO_TRIANGLES_AT_A_VERTEX))
    assert pic_open_subset(delta, weil)[1].is_trivial

    graphs = (
        [cycle_facets(4), path_facets(5), star_facets(4), complete_graph_facets(4)]
        + [TWO_TRIANGLES_AT_A_VERTEX]
    )
    rng = make_rng(808)
    while len(graphs) < 25:
        facets = [f for f in random_facets(rng) if len(f) <= 2]
        if any(len(f) == 2 for f in facets):
            graphs.append(facets)
    for facets in graphs:
        delta = cx(facets)
        if delta.dimension != 1:
            continue
        delta, weil = _weil_locus(delta)
        assert pic_open_subset(delta, weil)[1] == local_picard_formula(delta)[1]


def test_criterion_09_monomial_reports():
    M = BinoidPresentation(
        ("x", "y", "z"),
        (Relation((2, 1, 3), None), Relation((1, 2, 2), None)),
    )
    report = monomial_report(M)
    assert report.complex.facets == (("x", "y"), ("x", "z"), ("y", "z"))
    assert report.is_radical is False
    assert report.nonvanishing_h1 is True

    assert monomial_report(xyz_to_infinity()).is_radical is True
    squarefree = BinoidPresentation(
        ("x", "y", "z"),
        (Relation((1, 1, 0), None), Relation((0, 1, 1), None)),
    )
    assert monomial_report(squarefree).is_radical is True


def test_criterion_10_property_suites():
    rng = make_rng(1010)

    # Smith decomposition on 200 random matrices up to 8x8, entries in [-9, 9]
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], cols=n
        )
        dec = smith_normal_form(A)
        assert dec.U * A * dec.V == dec.S
        assert abs(det_int(dec.U.to_lists())) == 1
        assert abs(det_int(dec.V.to_lists())) == 1
        diag = dec.diagonal()
        for i in range(dec.S.rows):
            for j in range(dec.S.cols):
                if i != j:
                    assert dec.S.entry(i, j) == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0) <= (b == 0)
            if a > 0 and b > 0:
                assert b % a == 0

    for _ in range(30):
        delta = cx(random_facets(rng))

        # the unit-sheaf complex really is a complex
        cech = picard_complex_simplicial(delta)
        for first, second in zip(cech.differentials, cech.differentials[1:]):
            assert (second * first).is_zero()

        # Euler characteristic: alternating face counts match cohomology
        face_euler = sum(
            (-1) ** d * len(delta.faces(d)) for d in range(delta.dimension + 1)
        )
        groups = delta.cohomology()
        cohomology_euler = sum((-1) ** j * g.free_rank for j, g in enumerate(groups))
        assert face_euler == cohomology_euler

        # low degrees of the unit-sheaf cohomology carry no torsion
        picard = local_picard_formula(delta)
        assert picard[0].invariant_factors == ()
        if len(picard) > 1:
            assert picard[1].invariant_factors == ()

        # the nerve of the coordinate cover returns the complex, relabeled
        S = compute_spec(from_simplicial(delta))
        cover = [(i,) for i in range(len(delta.vertices))]
        position = {v: i + 1 for i, v in enumerate(delta.vertices)}
        relabeled = {
            tuple(position[v] for v in facet) for facet in delta.facets
        }
        assert set(nerve(S, cover).facets) == relabeled
