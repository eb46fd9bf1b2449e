import random

import pytest

from binoids.binoid import (
    BinoidPresentation,
    Relation,
    as_simplicial,
    difference_group,
    from_simplicial,
    radical_complex,
    smash_free,
)
from binoids.errors import (
    NotIntegral,
    NotMonomialPresentation,
    NotSimplicialPresentation,
    Torsion,
    VoidComplex,
)
from binoids.simplicial import SimplicialComplex

from fixtures import FAVOURITE_FACETS, TRIANGLE_BOUNDARY, free_binoid, xy_nz, xyzw
from oracles import make_rng, random_facets


class TestRelation:
    def test_non_integer_exponent_is_refused(self):
        # x + 1.7 y = 4.9 z was once truncated to x + y = 4 z, class group Z/4
        with pytest.raises(ValueError):
            Relation((1, 1.7, 0), (0, 0, 4.9))
        with pytest.raises(ValueError):
            Relation((0.5, 1), None)

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError):
            Relation((1, -1), (0, 2))


class TestFromSimplicial:
    def test_triangle_boundary(self):
        M = from_simplicial(SimplicialComplex.from_facets(TRIANGLE_BOUNDARY))
        assert M.generator_names == (1, 2, 3)
        assert M.relations == (Relation((1, 1, 1), None),)

    def test_simplex_has_no_relations(self):
        M = from_simplicial(SimplicialComplex.from_facets([(1, 2, 3, 4)]))
        assert M.relations == ()

    def test_favourite(self):
        M = from_simplicial(SimplicialComplex.from_facets(FAVOURITE_FACETS))
        assert M.generator_names == (1, 2, 3, 4)
        assert set(M.relations) == {
            Relation((1, 0, 0, 1), None),
            Relation((0, 1, 0, 1), None),
        }

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            from_simplicial(SimplicialComplex.void())
        with pytest.raises(VoidComplex):
            from_simplicial(SimplicialComplex.empty())


class TestAsSimplicial:
    def test_triangle_boundary(self):
        M = BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 1), None),))
        c = as_simplicial(M)
        assert c.facets == (("x", "y"), ("x", "z"), ("y", "z"))

    def test_no_relations_gives_simplex(self):
        c = as_simplicial(free_binoid(3))
        assert c.facets == (("x1", "x2", "x3"),)

    def test_non_squarefree_rejected(self):
        M = BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 2), None),))
        with pytest.raises(NotSimplicialPresentation):
            as_simplicial(M)

    def test_element_relation_rejected(self):
        with pytest.raises(NotSimplicialPresentation):
            as_simplicial(xy_nz(2))

    def test_non_minimal_relations_accepted(self):
        minimal = BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 0), None),))
        redundant = BinoidPresentation(
            ("x", "y", "z"),
            (Relation((1, 1, 0), None), Relation((1, 1, 1), None)),
        )
        assert as_simplicial(minimal) == as_simplicial(redundant)

    def test_generator_killed_by_singleton_relation(self):
        M = BinoidPresentation(("x",), (Relation((1,), None),))
        assert as_simplicial(M).is_empty

    def test_roundtrip_with_from_simplicial(self):
        rng = make_rng(11)
        for _ in range(25):
            c = SimplicialComplex.from_facets(random_facets(rng))
            assert as_simplicial(from_simplicial(c)) == c


class TestRadicalComplex:
    def test_non_reduced_single_generator(self):
        M = BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 2), None),))
        c = radical_complex(M)
        assert c.facets == (("x", "y"), ("x", "z"), ("y", "z"))

    def test_squarefree_input_matches_as_simplicial(self):
        M = BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 0), None),))
        assert radical_complex(M) == as_simplicial(M)

    def test_two_generator_monomial_ideal(self):
        M = BinoidPresentation(
            ("x", "y", "z"),
            (Relation((2, 1, 3), None), Relation((1, 2, 2), None)),
        )
        c = radical_complex(M)
        assert c.facets == (("x", "y"), ("x", "z"), ("y", "z"))

    def test_element_relation_rejected(self):
        with pytest.raises(NotMonomialPresentation):
            radical_complex(xy_nz(2))

    def test_idempotent(self):
        M = BinoidPresentation(
            ("x", "y", "z"),
            (Relation((2, 1, 3), None), Relation((1, 2, 2), None)),
        )
        c = radical_complex(M)
        assert radical_complex(from_simplicial(c)) == c


class TestSmashFree:
    def test_adds_fresh_generators(self):
        M = smash_free(xy_nz(3), 1)
        assert M.generator_names == ("x", "y", "z", "t")
        assert M.relations == (Relation((1, 1, 0, 0), (0, 0, 3, 0)),)

    def test_zero_is_identity(self):
        assert smash_free(xy_nz(3), 0) == xy_nz(3)

    def test_free_binoid_stays_free(self):
        M = smash_free(free_binoid(2), 3)
        assert len(M.generator_names) == 5
        assert M.relations == ()

    def test_name_collision_avoided(self):
        base = BinoidPresentation(("t", "t1"), ())
        M = smash_free(base, 2)
        assert len(set(M.generator_names)) == 4


class TestDifferenceGroup:
    def test_xy_nz_rank(self):
        G = difference_group(xy_nz(4))
        assert G.rank == 2
        assert G.images.rows == 2 and G.images.cols == 3

    def test_free_binoid_identity_images(self):
        G = difference_group(free_binoid(3))
        assert G.rank == 3
        assert G.images.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_xyzw_rank(self):
        assert difference_group(xyzw()).rank == 3

    def test_infinity_relation_rejected(self):
        M = BinoidPresentation(("x", "y"), (Relation((1, 1), None),))
        with pytest.raises(NotIntegral):
            difference_group(M)

    def test_torsion_guarded(self):
        M = BinoidPresentation(("x", "y"), (Relation((2, 0), (0, 2)),))
        with pytest.raises(Torsion):
            difference_group(M)

    def test_images_kill_relations(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 4)
            rels = []
            for _ in range(rng.randint(0, 2)):
                lhs = tuple(rng.randint(0, 2) for _ in range(n))
                rhs = tuple(rng.randint(0, 2) for _ in range(n))
                if lhs != rhs:
                    rels.append(Relation(lhs, rhs))
            M = BinoidPresentation(
                tuple("g%d" % i for i in range(n)), tuple(rels)
            )
            try:
                G = difference_group(M)
            except Torsion:
                continue
            for rel in M.relations:
                delta = [l - r for l, r in zip(rel.lhs, rel.rhs)]
                image = [sum(a * b for a, b in zip(row, delta)) for row in G.images.entries]
                assert image == [0] * G.rank
