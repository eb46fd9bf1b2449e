import copy
import itertools
import pickle

import pytest

from binoids.binoid import BinoidPresentation, Relation, from_simplicial
from binoids.errors import NotInSpec, NotOpen, NotPositive
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import (
    PrimeIdeal,
    SpecPoset,
    compute_spec,
    connected_components,
    height,
    minimal_cover,
    minimal_neighborhood,
    nerve,
    open_subset,
    spectrum_of_complex,
    to_dot,
)

from fixtures import (
    FAVOURITE_FACETS,
    free_binoid,
    two_x_three_y,
    xy_nz,
    xyz_to_infinity,
    xyzw,
)
from oracles import brute_cover_edges, make_rng, random_facets

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


def prime_sets(S):
    return {p.generator_subset for p in S.primes}


def favourite_spec():
    return compute_spec(from_simplicial(SimplicialComplex.from_facets(FAVOURITE_FACETS)))


class TestPrimeIdeal:
    """A prime is the sorted tuple of its generators; it equals, hashes and
    orders as that plain tuple does."""

    def test_constructor_sorts_and_repr_is_kept(self):
        assert repr(PrimeIdeal([3, 0, 2])) == "PrimeIdeal(generator_subset=(0, 2, 3))"
        assert repr(PrimeIdeal()) == "PrimeIdeal(generator_subset=())"
        assert repr(PrimeIdeal(generator_subset=(1,))) == "PrimeIdeal(generator_subset=(1,))"

    def test_generator_subset_is_a_plain_tuple(self):
        p = PrimeIdeal((2, 1))
        assert type(p.generator_subset) is tuple and p.generator_subset == (1, 2)

    def test_iteration_length_and_order(self):
        p = PrimeIdeal((2, 1))
        assert list(p) == [1, 2] and len(p) == 2 and not PrimeIdeal()
        primes = [PrimeIdeal((1,)), PrimeIdeal((0, 2)), PrimeIdeal(()), PrimeIdeal((0,))]
        assert sorted(primes) == [PrimeIdeal(()), PrimeIdeal((0,)), PrimeIdeal((0, 2)), PrimeIdeal((1,))]
        assert PrimeIdeal((0, 2)) < PrimeIdeal((1,)) and PrimeIdeal((0,)) < PrimeIdeal((0, 1))

    def test_pickle_and_copy_round_trips(self):
        p = PrimeIdeal((4, 1))
        copies = [pickle.loads(pickle.dumps(p, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies + [copy.copy(p), copy.deepcopy(p)]:
            assert type(q) is PrimeIdeal and q == p and repr(q) == repr(p)

    def test_equal_to_and_hashed_as_the_plain_tuple(self):
        p = PrimeIdeal((1, 0))
        assert p == (0, 1) and hash(p) == hash((0, 1))
        assert {p: "x"}[(0, 1)] == "x" and (0, 1) in {p}

    def test_immutable(self):
        p = PrimeIdeal((0,))
        with pytest.raises(AttributeError):
            p.generator_subset = (1,)
        with pytest.raises(AttributeError):
            p.extra = 1


class TestOnlyPrimeIdealsAreInSpec:
    """A plain tuple equals the PrimeIdeal of the same generators but is not
    in the spectrum; every lookup agrees with `in` and names it."""

    def test_plain_tuple_is_refused_by_every_lookup(self):
        S = compute_spec(free_binoid(2))
        assert PrimeIdeal((0,)) in S and (0,) not in S
        calls = [
            lambda: S.position_of((0,)),
            lambda: height(S, (0,)),
            lambda: minimal_neighborhood(S, (0,)),
            lambda: minimal_cover(S, {(0,)}),
        ]
        for call in calls:
            with pytest.raises(NotInSpec, match=r"^\(0,\) is not a PrimeIdeal$"):
                call()

    def test_prime_of_another_spectrum_keeps_its_message(self):
        S = compute_spec(xy_nz(3))
        with pytest.raises(NotInSpec, match=r"^\(0,\) is not a prime ideal here$"):
            S.position_of(PrimeIdeal((0,)))


class TestComputeSpec:
    def test_free_binoid_power_set(self):
        S = compute_spec(free_binoid(3))
        assert prime_sets(S) == {
            tuple(c) for r in range(4) for c in itertools.combinations(range(3), r)
        }

    def test_x_plus_y_equals_z_plus_w(self):
        assert prime_sets(compute_spec(xyzw())) == XYZW_PRIMES

    def test_two_x_equals_three_y(self):
        assert prime_sets(compute_spec(two_x_three_y())) == {(), (0, 1)}

    def test_non_integral_misses_infinity_prime(self):
        S = compute_spec(xyz_to_infinity())
        assert prime_sets(S) == {
            c
            for r in range(1, 4)
            for c in (tuple(s) for s in itertools.combinations(range(3), r))
        }
        assert len(S.primes) == 7

    def test_positivity_guard(self):
        M = BinoidPresentation(("x", "y"), (Relation((1, 0), (0, 0)),))
        with pytest.raises(NotPositive):
            compute_spec(M)

    def test_union_closed_and_extremes(self):
        rng = make_rng(13)
        for _ in range(20):
            c = SimplicialComplex.from_facets(random_facets(rng, 6))
            M = from_simplicial(c)
            S = compute_spec(M)
            sets = prime_sets(S)
            full = tuple(range(M.generator_count))
            assert full in sets
            assert (() in sets) == (not any(rel.is_infinity for rel in M.relations))
            for a in sets:
                for b in sets:
                    assert tuple(sorted(set(a) | set(b))) in sets

    def test_masks_kept_from_the_enumeration(self):
        """Both routes hand over each prime's bitmask; a poset built from the
        primes alone derives the same ones and is equal, with the same repr."""
        rng = make_rng(15)
        for _ in range(20):
            c = SimplicialComplex.from_facets(random_facets(rng, 6))
            for S in (compute_spec(from_simplicial(c)), compute_spec(xyzw()), spectrum_of_complex(c)):
                kept = S._generator_masks()
                assert kept == tuple(sum(1 << i for i in p) for p in S.primes)
                bare = SpecPoset(S.generator_names, S.primes)
                assert bare == S and repr(bare) == repr(S)
                assert bare._generator_masks() == kept

    def test_face_prime_bijection(self):
        rng = make_rng(14)
        for _ in range(20):
            c = SimplicialComplex.from_facets(random_facets(rng, 6))
            M = from_simplicial(c)
            S = compute_spec(M)
            pos = {v: i for i, v in enumerate(c.vertices)}
            expected = {
                tuple(sorted(set(range(len(c.vertices))) - {pos[v] for v in f}))
                for f in c.all_faces()
            }
            assert prime_sets(S) == expected


class TestHeight:
    def test_xy_nz_height_one(self):
        S = compute_spec(xy_nz(3))
        assert height(S, PrimeIdeal((0, 2))) == 1
        assert height(S, PrimeIdeal((1, 2))) == 1

    def test_minimal_prime(self):
        S = compute_spec(xy_nz(3))
        assert height(S, PrimeIdeal(())) == 0

    def test_favourite_heights_match_facet_rule(self):
        c = SimplicialComplex.from_facets(FAVOURITE_FACETS)
        S = favourite_spec()
        pos = {v: i for i, v in enumerate(c.vertices)}
        for face in c.all_faces():
            prime = PrimeIdeal(
                tuple(sorted(set(range(4)) - {pos[v] for v in face}))
            )
            max_facet_dim = max(
                len(g) - 1 for g in c.facets if set(face) <= set(g)
            )
            assert height(S, prime) == max_facet_dim - (len(face) - 1)

    def test_not_in_spec(self):
        S = compute_spec(xy_nz(3))
        with pytest.raises(NotInSpec):
            height(S, PrimeIdeal((0,)))

    def test_monotone(self):
        S = compute_spec(xyzw())
        for p in S.primes:
            for q in S.primes:
                if set(p.generator_subset) < set(q.generator_subset):
                    assert height(S, p) < height(S, q)


class TestMinimalNeighborhood:
    def test_favourite(self):
        S = favourite_spec()
        assert minimal_neighborhood(S, PrimeIdeal((0, 3))) == (1, 2)

    def test_infinity_prime(self):
        S = compute_spec(free_binoid(3))
        assert minimal_neighborhood(S, PrimeIdeal(())) == (0, 1, 2)

    def test_maximal_ideal(self):
        S = favourite_spec()
        assert minimal_neighborhood(S, PrimeIdeal((0, 1, 2, 3))) == ()


class TestOpenSubset:
    def test_favourite_d_x1_x3(self):
        S = favourite_spec()
        assert {p.generator_subset for p in open_subset(S, (0, 2))} == {
            (3,),
            (1, 3),
        }

    def test_empty_support_is_everything(self):
        S = favourite_spec()
        assert open_subset(S, ()) == set(S.primes)

    def test_nonface_support_is_empty(self):
        S = favourite_spec()
        assert open_subset(S, (0, 3)) == set()

    def test_subset_closed(self):
        S = compute_spec(xyzw())
        U = open_subset(S, (0,))
        sets = {p.generator_subset for p in U}
        for p in S.primes:
            if any(set(p.generator_subset) < set(q) for q in sets):
                assert p.generator_subset in sets


class TestMinimalCover:
    def test_favourite_example(self):
        S = favourite_spec()
        U = (
            open_subset(S, (2, 3))
            | open_subset(S, (1, 2))
            | open_subset(S, (0,))
        )
        assert minimal_cover(S, U) == [(0,), (1, 2), (2, 3)]

    def test_punctured_spectrum_gives_coordinate_cover(self):
        rng = make_rng(15)
        for _ in range(15):
            c = SimplicialComplex.from_facets(random_facets(rng, 6))
            S = compute_spec(from_simplicial(c))
            punctured = {
                p for p in S.primes
                if p.generator_subset != tuple(range(len(c.vertices)))
            }
            cover = minimal_cover(S, punctured)
            assert cover == [(i,) for i in range(len(c.vertices))]

    def test_single_minimal_prime(self):
        S = favourite_spec()
        p = PrimeIdeal((3,))
        U = open_subset(S, minimal_neighborhood(S, p))
        assert minimal_cover(S, U) == [minimal_neighborhood(S, p)]

    def test_not_open(self):
        S = favourite_spec()
        with pytest.raises(NotOpen):
            minimal_cover(S, {PrimeIdeal((0, 1, 2, 3))})


class TestNerve:
    def test_coordinate_cover_nerve_is_the_complex(self):
        rng = make_rng(16)
        for _ in range(20):
            c = SimplicialComplex.from_facets(random_facets(rng, 6))
            S = compute_spec(from_simplicial(c))
            cover = [(i,) for i in range(len(c.vertices))]
            nv = nerve(S, cover)
            relabeled = tuple(
                tuple(c.vertices[i - 1] for i in f) for f in nv.facets
            )
            assert relabeled == c.facets

    def test_favourite_cover_nerve(self):
        S = favourite_spec()
        assert nerve(S, [(0,), (1, 2), (2, 3)]).facets == ((1, 2), (3,))

    def test_single_open(self):
        S = favourite_spec()
        assert nerve(S, [(0,)]).facets == ((1,),)

    def test_empty_opens_are_not_vertices(self):
        S = favourite_spec()
        # no prime avoids every generator, so D(a+b+c+d) is empty
        assert nerve(S, []) == SimplicialComplex.void()
        assert nerve(S, [(0, 1, 2, 3)]) == SimplicialComplex.void()
        N = nerve(S, [(0, 1, 2, 3), (0,)])
        assert (N.vertices, N.facets) == ((2,), ((2,),))


class TestConnectedComponents:
    def test_two_branches(self):
        M = BinoidPresentation(("x", "y"), (Relation((1, 1), None),))
        S = compute_spec(M)
        punctured = {p for p in S.primes if p.generator_subset != (0, 1)}
        assert connected_components(S, punctured) == 2

    def test_connected(self):
        S = compute_spec(xyzw())
        punctured = {p for p in S.primes if p.generator_subset != (0, 1, 2, 3)}
        assert connected_components(S, punctured) == 1

    def test_empty(self):
        S = compute_spec(xyzw())
        assert connected_components(S, set()) == 0


class TestDot:
    def test_two_element_chain(self):
        M = BinoidPresentation(("x",), ())
        text = to_dot(compute_spec(M))
        assert text.count("->") == 1
        assert text.count("label=") == 2

    def test_free_on_two_is_a_diamond(self):
        text = to_dot(compute_spec(free_binoid(2)))
        assert text.count("label=") == 4
        assert text.count("->") == 4

    def test_xyzw_cover_edge_count(self):
        S = compute_spec(xyzw())
        expected = brute_cover_edges([frozenset(p) for p in XYZW_PRIMES])
        text = to_dot(S)
        assert text.count("label=") == 10
        assert text.count("->") == len(expected) == 16

    def test_deterministic(self):
        assert to_dot(compute_spec(xyzw())) == to_dot(compute_spec(xyzw()))
