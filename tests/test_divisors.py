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
from binoids.divisors import (
    class_group,
    cone_facets,
    regular_in_codim1_check,
    valuation_matrix,
)
from binoids.errors import FacetPrimeMismatch, NotFullDimensional, NotPointed
from binoids.exactalg import FinAbGroup, IntMatrix, cokernel, smith_normal_form

from fixtures import free_binoid, xy_nz, xyzw
from oracles import brute_cone_facets


def value_rows(M):
    """Facet normals evaluated on the generator images, basis independent."""
    gamma = difference_group(M)
    rows = set()
    for normal in cone_facets(gamma):
        rows.add(
            tuple(
                sum(a * b for a, b in zip(normal, gamma.image_of(i)))
                for i in range(M.generator_count)
            )
        )
    return rows


@st.composite
def cone_images(draw):
    """Images of rank 1-6: drawn ones (nonnegative half the time, so that
    most cones are pointed), then repeats, multiples and sums of them."""
    r = draw(st.integers(1, 6))
    low = draw(st.sampled_from([-3, 0]))
    vector = st.tuples(*[st.integers(low, 3)] * r)
    images = draw(st.lists(vector, min_size=r, max_size=r + 3))
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.sampled_from(images)), draw(st.sampled_from(images))
        k = draw(st.integers(1, 3))
        images.append(draw(st.sampled_from([u, tuple(k * a for a in u), tuple(map(sum, zip(u, v)))])))
    return draw(st.permutations(images))


def non_cancellative():
    return BinoidPresentation(("x", "y"), (Relation((1, 1), (0, 2)),))


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
            for normal in cone_facets(gamma):
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
                assert smith_normal_form(touched).rank() == gamma.rank - 1

    def test_not_full_dimensional(self):
        gamma = DifferenceGroup(
            2,
            IntMatrix.from_rows([[1, 2], [0, 0]]),
            IntMatrix.zero(2, 0),
        )
        with pytest.raises(NotFullDimensional):
            cone_facets(gamma)

    def test_not_pointed(self):
        gamma = DifferenceGroup(
            2,
            IntMatrix.from_rows([[1, -1, 0], [0, 0, 1]]),
            IntMatrix.zero(2, 0),
        )
        with pytest.raises(NotPointed):
            cone_facets(gamma)

    @settings(max_examples=200, deadline=None)
    @given(cone_images())
    def test_matches_brute_force_oracle(self, images):
        r = len(images[0])
        columns = IntMatrix.from_rows([[v[i] for v in images] for i in range(r)], cols=len(images))
        try:
            got = cone_facets(DifferenceGroup(r, columns, IntMatrix.zero(len(images), 0)))
        except (NotFullDimensional, NotPointed) as e:
            got = type(e).__name__
        assert got == brute_cone_facets(images)

    def test_deterministic(self):
        gamma = difference_group(xyzw())
        assert cone_facets(gamma) == cone_facets(gamma)
        assert cone_facets(gamma) == sorted(cone_facets(gamma))


class TestValuationMatrix:
    @pytest.mark.parametrize("n", [2, 3])
    def test_x_plus_y_equals_nz(self, n):
        vm = valuation_matrix(xy_nz(n))
        assert [p.generator_subset for p in vm.row_primes] == [(0, 2), (1, 2)]
        assert vm.matrix.to_lists() == [[n, 0, 1], [0, n, 1]]

    def test_free_binoid_identity(self):
        vm = valuation_matrix(free_binoid(3))
        assert [p.generator_subset for p in vm.row_primes] == [(0,), (1,), (2,)]
        assert vm.matrix == IntMatrix.identity(3)

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
        "change, message",
        [
            (lambda ns: ns[1:], "3 facets against 4 height-1 primes: no facet selects <x,w>"),
            (
                lambda ns: ns + ns[:1],
                "5 facets against 4 height-1 primes: a surplus facet selects <x,w>",
            ),
            (lambda ns: ns[:3] + ns[:1], "two facets select the same prime <x,w>"),
        ],
    )
    def test_mismatch_names_a_prime(self, monkeypatch, change, message):
        # the facet (0, 0, 1) selects <x,w>; drop it, or count it twice
        normals = change(cone_facets(difference_group(xyzw())))
        monkeypatch.setattr(divisors, "cone_facets", lambda gamma: normals)
        with pytest.raises(FacetPrimeMismatch) as raised:
            valuation_matrix(xyzw())
        assert str(raised.value) == message


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
            normals = cone_facets(gamma)
            phi = IntMatrix.from_rows([list(v) for v in normals], cols=gamma.rank)
            assert smith_normal_form(phi).rank() == gamma.rank


class TestRegularInCodimensionOne:
    def test_x_plus_y_equals_nz_certified(self):
        report = regular_in_codim1_check(xy_nz(3))
        assert report.verdict == "Certified"
        assert all(e.witness is not None for e in report.evidence)

    def test_x_plus_y_equals_z_plus_w_certified(self):
        assert regular_in_codim1_check(xyzw()).verdict == "Certified"

    def test_free_binoid_certified(self):
        assert regular_in_codim1_check(free_binoid(3)).verdict == "Certified"

    def test_numerical_semigroup_unknown(self):
        # values on <2,3> are 2 and 3; no generator or 2-sum attains 1
        report = regular_in_codim1_check(numerical_2_3())
        assert report.verdict == "Unknown"
        assert report.evidence[0].witness is None
