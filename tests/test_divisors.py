import math

import pytest
from hypothesis import given, settings, strategies as st

from binoids import divisors
from binoids.binoid import (
    BinoidPresentation,
    DifferenceGroup,
    Relation,
    difference_group,
    smash_free,
)
from binoids.cech import local_picard_general
from binoids.divisors import (
    class_group,
    cone_facets,
    valuation_matrix,
)
from binoids.errors import FacetPrimeMismatch, NotCancellative, NotFullDimensional, NotPointed
from binoids.exactalg import FinAbGroup, IntMatrix, cokernel, invariant_factors
from binoids.spectrum import SpecPoset, compute_spec

from fixtures import free_binoid, lattice_polygon, quadric_cone, xy_nz, xyzw
from oracles import brute_cone_facets


def facet_normals(M):
    return list(cone_facets(difference_group(M), compute_spec(M)).values())


def value_rows(M):
    """Facet normals evaluated on the generator images, basis independent."""
    images = difference_group(M).all_images()
    return {
        tuple(sum(a * b for a, b in zip(normal, image)) for image in images)
        for normal in facet_normals(M)
    }


# the cone over the lattice points of a centrally symmetric polygon, on
# 2-3 edge directions, smashed with 0-3 free generators (rank 3-6)
DIRECTIONS = [(1, 0), (1, 1), (0, 1), (-1, 1), (2, 1), (1, 2)]
polygon_cones = st.builds(
    lambda edges, k: smash_free(quadric_cone(lattice_polygon(edges)), k),
    st.lists(st.sampled_from(DIRECTIONS), min_size=2, max_size=3, unique=True).map(
        lambda edges: edges + [(-x, -y) for x, y in edges]
    ),
    st.integers(0, 3),
)


def non_cancellative():
    return BinoidPresentation(("x", "y"), (Relation((1, 1), (0, 2)),))


def x_plus_y_plus_z_equals_z():
    return BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 1), (0, 0, 1)),))


def numerical_2_3():
    return BinoidPresentation(("x", "y"), (Relation((3, 0), (0, 2)),))


class TestConeFacets:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_x_plus_y_equals_nz(self, n):
        assert value_rows(xy_nz(n)) == {(n, 0, 1), (0, n, 1)}

    def test_free_binoid_coordinate_facets(self):
        assert value_rows(free_binoid(3)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_x_plus_y_equals_z_plus_w(self):
        assert value_rows(xyzw()) == {
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        }

    def test_normals_primitive_nonnegative_and_supporting(self):
        for M in (xy_nz(3), xyzw(), free_binoid(4), numerical_2_3()):
            gamma = difference_group(M)
            images = gamma.all_images()
            for normal in facet_normals(M):
                assert math.gcd(*normal) == 1
                values = [
                    sum(a * b for a, b in zip(normal, img)) for img in images
                ]
                assert all(v >= 0 for v in values)
                assert any(v > 0 for v in values)
                zero_images = [
                    img for img, v in zip(images, values) if v == 0
                ]
                touched = IntMatrix.from_rows(zero_images, cols=gamma.rank)
                assert len(invariant_factors(touched)) == gamma.rank - 1

    def test_not_full_dimensional(self):
        gamma = DifferenceGroup(2, IntMatrix.from_rows([[1, 2], [0, 0]]))
        with pytest.raises(NotFullDimensional):
            cone_facets(gamma, compute_spec(free_binoid(2)))

    def test_not_pointed(self):
        # x + y = 0 in the difference group, so the cone is the half-plane
        # z >= 0; its one facet, off the prime <z>, does not span the dual.
        # With a + b = 2b beside it the minimal prime <b> has no facet, and
        # the facet positive on <a,b> is found among the larger primes.
        xyz = x_plus_y_plus_z_equals_z()
        ab = BinoidPresentation(
            xyz.generator_names + ("a", "b"),
            (
                Relation((1, 1, 1, 0, 0), (0, 0, 1, 0, 0)),
                Relation((0, 0, 0, 1, 1), (0, 0, 0, 0, 2)),
            ),
        )
        for M in (xyz, ab):
            for verb in (class_group, local_picard_general):
                with pytest.raises(NotPointed):
                    verb(M)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            polygon_cones,
            st.builds(xy_nz, st.integers(2, 5)),
            st.just(xyzw()),
            st.builds(free_binoid, st.integers(1, 5)),
        )
    )
    def test_matches_brute_force_oracle(self, M):
        # every minimal prime of these cancellative presentations is a facet's
        gamma = difference_group(M)
        normals = facet_normals(M)
        assert None not in normals
        assert sorted(normals) == brute_cone_facets(gamma.all_images())

    def test_deterministic(self):
        gamma, S = difference_group(xyzw()), compute_spec(xyzw())
        assert cone_facets(gamma, S) == cone_facets(gamma, S)
        assert list(cone_facets(gamma, S)) == [p for p in S.primes if len(p) == 2]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_kernel_line_per_facet(self, monkeypatch, k):
        # the facets are read off the 4 minimal primes, one kernel line each,
        # with no Hasse diagram: the k free generators are split off first
        lines = []
        kernel_line = divisors._kernel_line

        def recording_kernel_line(vectors, r):
            lines.append(len(vectors))
            return kernel_line(vectors, r)

        def no_hasse_diagram(S):
            raise AssertionError("the Hasse diagram was built")

        monkeypatch.setattr(divisors, "_kernel_line", recording_kernel_line)
        monkeypatch.setattr(SpecPoset, "_hasse_diagram", no_hasse_diagram)
        M = smash_free(xyzw(), k) if k else xyzw()
        assert class_group(M) == FinAbGroup(1)
        assert len(lines) == 4


class TestValuationMatrix:
    @pytest.mark.parametrize("n", [2, 3])
    def test_x_plus_y_equals_nz(self, n):
        vm = valuation_matrix(xy_nz(n))
        assert [p.generator_subset for p in vm.row_primes] == [(0, 2), (1, 2)]
        assert vm.matrix.to_lists() == [[n, 0, 1], [0, n, 1]]

    def test_free_binoid_identity(self):
        vm = valuation_matrix(free_binoid(3))
        assert [p.generator_subset for p in vm.row_primes] == [(0,), (1,), (2,)]
        assert vm.matrix.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_x_plus_y_equals_z_plus_w(self):
        vm = valuation_matrix(xyzw())
        assert [p.generator_subset for p in vm.row_primes] == [
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
        ]
        assert vm.matrix.to_lists() == [
            [1, 0, 1, 0],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, 0, 1],
        ]

    def test_rows_have_zero_and_positive_entries(self):
        for M in (xy_nz(4), xyzw(), free_binoid(2), smash_free(xy_nz(2), 1)):
            vm = valuation_matrix(M)
            for row in vm.matrix.to_lists():
                assert any(v == 0 for v in row)
                assert any(v > 0 for v in row)

    def test_zero_value_matches_prime_membership(self):
        vm = valuation_matrix(xyzw())
        for prime, row in zip(vm.row_primes, vm.matrix.to_lists()):
            inside = set(prime.generator_subset)
            for i, v in enumerate(row):
                assert (v == 0) == (i not in inside)

    def test_mismatch_detected(self):
        with pytest.raises(FacetPrimeMismatch):
            valuation_matrix(non_cancellative())

    @pytest.mark.parametrize(
        "M, prime",
        [
            # x = y in the difference group: the images off <y> span it all
            (non_cancellative(), "<y>"),
            # the difference group is 0, so no prime has a facet
            (
                BinoidPresentation(
                    ("g0", "g1"), (Relation((1, 1), (2, 3)), Relation((1, 1), (1, 2)))
                ),
                "<g0>",
            ),
            # 3d = 2b + c holds in the difference group but not in the binoid
            (
                BinoidPresentation(
                    ("a", "b", "c", "d"),
                    (Relation((1, 0, 0, 1), (0, 1, 1, 0)), Relation((2, 0, 0, 0), (0, 0, 1, 1))),
                ),
                "<a,c>",
            ),
        ],
        ids=["x+y=2y", "rank-zero", "not-cancellative"],
    )
    def test_mismatch_names_a_prime(self, M, prime):
        with pytest.raises(FacetPrimeMismatch) as raised:
            class_group(M)
        assert str(raised.value) == (
            "facet supports do not match the height-1 primes: no facet selects " + prime
        )
        with pytest.raises(NotCancellative) as raised:
            local_picard_general(M)
        assert str(raised.value) == (
            "not cancellative: the generators outside the prime %s "
            "are not the generators on a face of the cone" % prime
        )


class TestClassGroup:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_x_plus_y_equals_nz(self, n):
        assert class_group(xy_nz(n)) == FinAbGroup(0, (n,))

    def test_x_plus_y_equals_z_plus_w(self):
        assert class_group(xyzw()) == FinAbGroup(1)

    def test_free_binoid_trivial(self):
        assert class_group(free_binoid(4)).is_trivial

    @pytest.mark.parametrize("k", [1, 2])
    def test_smash_invariance(self, k):
        for M in (xy_nz(2), xy_nz(3), xyzw()):
            assert class_group(smash_free(M, k)) == class_group(M)

    def test_agrees_with_valuation_cokernel(self):
        # generator images span the difference group, so dividing by the
        # image of the valuation map or of its generator values is the same
        for M in (xy_nz(3), xyzw(), numerical_2_3()):
            assert class_group(M) == cokernel(valuation_matrix(M).matrix)

    def test_injectivity_of_divisor_morphism(self):
        for M in (xy_nz(2), xyzw(), free_binoid(3), numerical_2_3()):
            gamma = difference_group(M)
            normals = facet_normals(M)
            phi = IntMatrix.from_rows([list(v) for v in normals], cols=gamma.rank)
            assert len(invariant_factors(phi)) == gamma.rank
