import copy
import itertools
import pickle
import re

import pytest

from binoids.binoid import BinoidPresentation, Relation, from_simplicial
from binoids.errors import NotInSpec, NotOpen, NotPositive
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import (
    PrimeIdeal,
    SpecPoset,
    compute_spec,
    height,
    minimal_cover,
    nerve,
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
from oracles import basic_open, brute_cover_edges, make_rng, random_facets

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
            lambda: minimal_cover(S, {(0,)}),
        ]
        for call in calls:
            with pytest.raises(NotInSpec, match=r"^\(0,\) is not a PrimeIdeal$"):
                call()

    def test_prime_of_another_spectrum_keeps_its_message(self):
        S = compute_spec(xy_nz(3))
        with pytest.raises(NotInSpec, match=r"^\(0,\) is not a prime ideal here$"):
            S.position_of(PrimeIdeal((0,)))

    @pytest.mark.parametrize(
        "generators", [(0, 0), (0, 0, 1), (-1,), ("x",), (0, 5)],
        ids=["repeated", "repeated-carry", "negative", "not-an-int", "too-large"],
    )
    def test_tuple_that_is_no_bitmask_here_is_not_in_spec(self, generators):
        # (0, 0) would otherwise add up to the bitmask of (1,)
        S = compute_spec(free_binoid(3))
        prime = PrimeIdeal(generators)
        assert prime not in S
        with pytest.raises(NotInSpec, match=r" is not a prime ideal here$"):
            height(S, prime)


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

    def test_no_generators(self):
        assert compute_spec(BinoidPresentation((), ())).primes == (PrimeIdeal(()),)

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
        """Both routes keep each prime as its bitmask only, and the public
        primes are read off them; a poset built from the bitmasks alone is
        equal, with the same repr, and finds each prime at its position."""
        rng = make_rng(15)
        for _ in range(20):
            c = SimplicialComplex.from_facets(random_facets(rng, 6))
            for S in (compute_spec(from_simplicial(c)), compute_spec(xyzw()), spectrum_of_complex(c)):
                assert all(type(m) is int for m in S._primes)
                assert S._primes == tuple(sum(1 << i for i in p) for p in S.primes)
                bare = SpecPoset(S.generator_names, S._primes)
                assert bare == S and repr(bare) == repr(S)
                assert [bare.position_of(p) for p in S.primes] == list(range(len(S._primes)))

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


class TestMinimalCover:
    def test_favourite_example(self):
        S = favourite_spec()
        U = (
            basic_open(S.primes, (2, 3))
            | basic_open(S.primes, (1, 2))
            | basic_open(S.primes, (0,))
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
        U = basic_open(S.primes, (0, 1, 2))  # off the prime <3>: the primes inside it
        assert minimal_cover(S, U) == [(0, 1, 2)]

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

    @pytest.mark.parametrize(
        "support, index",
        [((0, 5), "5"), ((-1,), "-1"), (("g0",), "'g0'"), ((True,), "True")],
        ids=["too-large", "negative", "not-an-int", "bool"],
    )
    def test_support_outside_the_generators_is_refused(self, support, index):
        # D(g5) of a three-vertex complex was taken for the whole spectrum
        S = spectrum_of_complex(SimplicialComplex.from_facets([(1, 2), (2, 3)]))
        message = r"^the support %s holds %s, which is not a generator index in 0\.\.2$"
        with pytest.raises(NotInSpec, match=message % (re.escape(repr(support)), index)):
            nerve(S, [(0,), support])


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
