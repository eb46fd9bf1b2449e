import copy
import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from binoids import exactalg
from binoids.binoid import DifferenceGroup
from binoids.cech import _unit_lattice
from binoids.errors import CompositionNonzero
from binoids.exactalg import (
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    coefficient_cohomology,
    cokernel,
    invariant_factors,
    smith_normal_form,
    solve_columns,
)

from oracles import (
    det_int,
    mat_mul,
    minor_gcd_invariant_factors,
    naive_complex_cohomology,
    naive_diagonal,
    naive_snf,
    random_cochain_complex,
    random_unimodular,
    random_zero_composition,
    same_column_lattice,
)


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def zero(rows, cols):
    return IntMatrix.from_rows([[0] * cols for _ in range(rows)], cols=cols)


def cohomology_of_complex(ranks, diffs):
    """The cohomology of a complex as the package's complexes compute it:
    checked once to compose to zero, then reduced as a whole."""
    return exactalg._reduce_complex(ranks, exactalg._sparse_complex(ranks, diffs))


def middle_cohomology(d_in, d_out):
    """H at the middle group of the complex Z^a --d_in--> Z^b --d_out--> Z^c."""
    return cohomology_of_complex([d_in.cols, d_in.rows, d_out.rows], [d_in, d_out])[1]


def check_decomposition(A, dec):
    U, S, V = dec.U, dec.S, dec.V
    assert U.rows == U.cols == A.rows
    assert V.rows == V.cols == A.cols
    assert abs(det_int(U.to_lists())) == 1
    assert abs(det_int(V.to_lists())) == 1
    assert (U * A * V).to_lists() == S.to_lists()
    diag = [S.entry(i, i) for i in range(min(S.rows, S.cols))]
    for i in range(S.rows):
        for j in range(S.cols):
            if i != j:
                assert S.entry(i, j) == 0
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        A = M([[1, 0], [0, 1]])
        dec = smith_normal_form(A)
        assert dec.S.to_lists() == [[1, 0], [0, 1]]
        assert dec.U.to_lists() == [[1, 0], [0, 1]]
        assert dec.V.to_lists() == [[1, 0], [0, 1]]

    def test_minor_gcd_example(self):
        # invariant factors of [[2,4],[6,8]] frozen from the minor-gcd oracle
        A = M([[2, 4], [6, 8]])
        assert minor_gcd_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
        diag = check_decomposition(A, smith_normal_form(A))
        assert diag == [2, 4]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stacked_rows_give_one_n(self, n):
        rows = [[n, 0], [0, n], [1, 1]]
        assert minor_gcd_invariant_factors(rows) == ([1, n] if n > 1 else [1, 1])
        diag = check_decomposition(M(rows), smith_normal_form(M(rows)))
        assert diag == [1, n]

    def test_empty_shapes(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            A = zero(rows, cols)
            diag = check_decomposition(A, smith_normal_form(A))
            assert diag == [0] * min(rows, cols)

    def test_matches_minor_gcd_oracle_small(self):
        rng = random.Random(20260814)
        for _ in range(120):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            diag = check_decomposition(M(rows), smith_normal_form(M(rows)))
            expected = minor_gcd_invariant_factors(rows)
            assert [d for d in diag if d != 0] == expected

    def test_matches_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(99)
        for _ in range(40):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            diag = check_decomposition(M(rows), smith_normal_form(M(rows)))
            S = sympy_snf(sympy.Matrix(rows))
            theirs = [abs(S[i, i]) for i in range(min(m, n))]
            # normalize their diagonal (sympy places zeros the same way)
            assert sorted(d for d in diag if d) == sorted(d for d in theirs if d)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_reconstruction_property(self, rows):
        check_decomposition(M(rows), smith_normal_form(M(rows)))


class TestCokernel:
    def test_zero_map(self):
        assert cokernel(zero(2, 2)) == FinAbGroup(2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_x_plus_y_equals_nz_columns(self, n):
        # images (n,0), (0,n), (1,1) as columns of a 2x3 matrix
        A = M([[n, 0, 1], [0, n, 1]])
        assert cokernel(A) == FinAbGroup(0, (n,))

    def test_x_plus_y_equals_z_plus_w_columns(self):
        cols = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        A = M([[c[i] for c in cols] for i in range(4)])
        assert cokernel(A) == FinAbGroup(1)

    def test_unimodular_invariance(self):
        rng = random.Random(4)
        from oracles import random_unimodular

        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            P, _ = random_unimodular(rng, m)
            Q, _ = random_unimodular(rng, n)
            left = mat_mul(P, rows)
            right = mat_mul(rows, Q)
            assert cokernel(M(rows)) == cokernel(M(left)) == cokernel(M(right))


class TestComplexCohomology:
    def test_two_term_complex_from_units(self):
        # d: Z^2 -> Z^2, (a, b) |-> (a - b, 2b)
        d = M([[1, -1], [0, 2]])
        middle = middle_cohomology(zero(2, 0), d)
        assert middle == FinAbGroup(0)
        right = middle_cohomology(d, zero(0, 2))
        assert right == FinAbGroup(0, (2,))

    def test_zero_differentials(self):
        for k in range(4):
            H = middle_cohomology(zero(k, 0), zero(0, k))
            assert H == FinAbGroup(k)

    def test_composition_checked(self):
        d_in = M([[1], [0]])
        d_out = M([[1, 0]])
        with pytest.raises(CompositionNonzero):
            middle_cohomology(d_in, d_out)

    def test_random_complexes_match_naive_oracle(self):
        rng = random.Random(31)
        for _ in range(150):
            a, b, c = rng.randint(0, 4), rng.randint(1, 5), rng.randint(0, 4)
            split = rng.randint(0, b)
            d_in, d_out = random_zero_composition(rng, a, b, c, split)
            H = middle_cohomology(M(d_in, cols=a), M(d_out, cols=b))
            fr, tor = naive_complex_cohomology(d_in, d_out, b)
            assert (H.free_rank, H.invariant_factors) == (fr, tor)

    def check_against_oracle(self, d_in, d_out, a, b):
        H = middle_cohomology(M(d_in, cols=a), M(d_out, cols=b))
        fr, tor = naive_complex_cohomology(d_in, d_out, b)
        assert (H.free_rank, H.invariant_factors) == (fr, tor)

    def test_middle_rank_up_to_12(self):
        rng = random.Random(1201)
        for _ in range(60):
            a, b, c = rng.randint(0, 9), rng.randint(6, 12), rng.randint(0, 9)
            d_in, d_out = random_zero_composition(rng, a, b, c, rng.randint(0, b))
            self.check_against_oracle(d_in, d_out, a, b)

    def test_no_unit_pivot(self):
        # every entry a multiple of 2 or 3: the dense remainder does all the work
        rng = random.Random(1202)
        for _ in range(40):
            a, b, c = rng.randint(1, 8), rng.randint(2, 10), rng.randint(1, 8)
            d_in, d_out = random_zero_composition(rng, a, b, c, rng.randint(0, b))
            s, t = rng.choice([2, 3]), rng.choice([2, 3])
            d_in = [[s * x for x in row] for row in d_in]
            d_out = [[t * x for x in row] for row in d_out]
            self.check_against_oracle(d_in, d_out, a, b)

    def test_elimination_stops_part_way(self):
        # direct sum of a complex with unit entries and one scaled by 2 or 3:
        # the unit pivots run out while the scaled block is still nonzero
        def block_sum(A, B, cols_a, cols_b):
            return [row + [0] * cols_b for row in A] + [[0] * cols_a + row for row in B]

        def draw(rng, test):
            while True:
                a, b, c = rng.randint(1, 5), rng.randint(2, 6), rng.randint(1, 5)
                d_in, d_out = random_zero_composition(rng, a, b, c, rng.randint(1, b - 1))
                if any(test(x) for row in d_in + d_out for x in row):
                    return a, b, d_in, d_out

        rng = random.Random(1203)
        for _ in range(40):
            a1, b1, in1, out1 = draw(rng, lambda x: abs(x) == 1)
            a2, b2, in2, out2 = draw(rng, lambda x: x != 0)
            s = rng.choice([2, 3])
            in2 = [[s * x for x in row] for row in in2]
            out2 = [[s * x for x in row] for row in out2]
            d_in = block_sum(in1, in2, a1, a2)
            d_out = block_sum(out1, out2, b1, b2)
            self.check_against_oracle(d_in, d_out, a1 + a2, b1 + b2)


class TestInvariantFactors:
    def test_matches_naive_diagonal(self):
        rng = random.Random(1204)
        for _ in range(150):
            m, n = rng.randint(0, 12), rng.randint(0, 12)
            scale = rng.choice([1, 1, 2, 3])
            rows = [
                [scale * rng.choice([0, 0, 0, 1, -1, 2, 3]) for _ in range(n)]
                for _ in range(m)
            ]
            expected = tuple(d for d in naive_diagonal(rows, cols=n) if d)
            assert invariant_factors(M(rows, cols=n)) == expected


    def test_non_integer_entries_are_refused(self):
        # once truncated to [[2, 0], [0, 3]], whose invariant factors are (1, 6)
        with pytest.raises(ValueError):
            invariant_factors(IntMatrix.from_rows([[2.5, 0], [0, 3.9]]))

    def test_unit_made_by_fill_in_is_a_pivot(self):
        # the first pivot turns the entry 2 into 1, which must then be taken too
        rows = {0: {0: 1, 1: 1}, 1: {0: 1, 1: 2}}
        assert len(exactalg._eliminate(rows)) == 2
        assert rows == {}
        assert invariant_factors(M([[1, 1], [1, 2]])) == (1, 1)


def record_heaps(monkeypatch):
    """The number of entries each elimination puts on its heap at first."""
    sizes = []
    heapify = exactalg.heapq.heapify

    def recording(heap):
        sizes.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(exactalg.heapq, "heapify", recording)
    return sizes


@st.composite
def sparse_matrices(draw):
    """Up to 9 x 9, about half the entries 0 and the rest in -3..3."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)), n


class TestFreePivots:
    """Unit entries alone in their row or column are cancelled before the heap."""

    def test_lone_non_units_go_to_the_dense_remainder(self, monkeypatch):
        # row 0 holds only a 2 and column 1 only a -3; the lone unit of
        # column 3 is cancelled and leaves column 2 alone with a 2
        rows = {0: {0: 2}, 1: {1: -3, 2: 2}, 2: {2: 1, 3: 1}}
        heaps = record_heaps(monkeypatch)
        assert exactalg._eliminate(rows) == [(2, 3)]
        assert rows == {0: {0: 2}, 1: {1: -3, 2: 2}}
        assert heaps == [0]

        shapes = []
        smith = exactalg._smith

        def recording(rows, n, *transforms):
            shapes.append((len(rows), n))
            return smith(rows, n, *transforms)

        monkeypatch.setattr(exactalg, "_smith", recording)
        dense = [[2, 0, 0, 0], [0, -3, 2, 0], [0, 0, 1, 1]]
        assert invariant_factors(M(dense)) == (1, 1, 2)
        assert tuple(d for d in naive_diagonal(dense) if d) == (1, 1, 2)
        assert shapes == [(2, 3)]

    def test_each_free_pivot_frees_the_next(self, monkeypatch):
        # a bidiagonal chain whose only free unit is at its foot; row n
        # keeps column 0 from being alone until the chain reaches it
        n = 6
        rows = {i: {i: 1, i + 1: -1} for i in range(n - 1)}
        rows[n - 1] = {n - 1: 1}
        rows[n] = {0: 2}
        heaps = record_heaps(monkeypatch)
        assert exactalg._eliminate(rows) == [(i, i) for i in reversed(range(n))]
        assert rows == {}
        assert heaps == [0]

    def test_block_without_free_pivots_goes_through_the_heap(self, monkeypatch):
        # no row or column is alone; the first pivot makes two units by
        # fill-in, and the second of them, from the heap, leaves -3
        rows = {0: {0: 1, 1: 1, 2: 1}, 1: {0: 1, 1: 2, 2: 3}, 2: {0: 1, 1: 3, 2: 2}}
        heaps = record_heaps(monkeypatch)
        assert exactalg._eliminate(rows) == [(0, 0), (1, 1)]
        assert rows == {2: {2: -3}}
        assert heaps == [5]

    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_random_sparse_matrices(self, drawn):
        dense, n = drawn
        _, S, _ = naive_snf(dense, cols=n)
        expected = tuple(S[i][i] for i in range(min(len(dense), n)) if S[i][i])
        assert invariant_factors(M(dense, cols=n)) == expected

        rows = exactalg._sparse_rows(M(dense, cols=n))
        pivots = exactalg._eliminate(rows)
        assert all(x not in (1, -1) for row in rows.values() for x in row.values())
        pivot_rows, pivot_cols = {p for p, _ in pivots}, {q for _, q in pivots}
        assert len(pivot_rows) == len(pivot_cols) == len(pivots)
        assert not pivot_rows & set(rows)
        assert not pivot_cols & {j for row in rows.values() for j in row}


class TestColumnLatticeBasis:
    def test_same_lattice_full_column_rank(self):
        # the basis of the unit lattices of the Čech route, here of all the
        # columns of a matrix (the images outside the empty prime)
        rng = random.Random(1206)
        for _ in range(200):
            m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 7)
            scale = rng.choice([1, 2, 3])
            # products through Z^k give rank deficiency when k < min(m, n)
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
            right = [[scale * rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            rows = mat_mul(left, right) if k else [[0] * n for _ in range(m)]
            gamma = DifferenceGroup(m, M(rows, cols=n))
            B, _, d = _unit_lattice(gamma, 0)  # B as a list of rows
            assert len(B) == m and all(len(row) == len(d) for row in B)
            assert same_column_lattice(rows, B)
            assert len([x for x in naive_diagonal(B, cols=len(d)) if x]) == len(d)

    def test_oracle_tells_lattices_apart(self):
        assert same_column_lattice([[2, 0], [0, 1]], [[2, 2], [0, 1]])
        assert not same_column_lattice([[2], [0]], [[1], [0]])
        assert not same_column_lattice([[1], [0]], [[0], [1]])


class TestSolveColumns:
    def test_recovers_the_solution(self):
        rng = random.Random(1207)
        for _ in range(200):
            k = rng.randint(0, 4)
            m, a = k + rng.randint(0, 3), rng.randint(0, 3)
            # k columns of a unimodular matrix, each scaled: full column rank
            T, _ = random_unimodular(rng, m)
            scales = [rng.choice([1, 1, 2, -3]) for _ in range(k)]
            B = [[row[j] * scales[j] for j in range(k)] for row in T]
            X = [[rng.randint(-4, 4) for _ in range(a)] for _ in range(k)]
            C = mat_mul(B, X) if k else [[0] * a for _ in range(m)]
            assert solve_columns(M(B, cols=k), M(C, cols=a)).to_lists() == X

    @pytest.mark.parametrize(
        "B, C",
        [
            ([[2], [0]], [[1], [0]]),  # the diagonal does not divide
            ([[2], [0]], [[0], [1]]),  # a row below the rank is not zero
            ([[1, 1], [1, 1]], [[1], [1]]),  # rank short of the columns
            ([[1, 0]], [[1]]),  # more columns than rows
            ([[1], [0]], [[1]]),  # shapes differ
        ],
    )
    def test_raises_without_a_unique_integer_solution(self, B, C):
        with pytest.raises(ValueError):
            solve_columns(M(B), M(C))


# the dense Smith forms of one integral-units benchmark pass at seed 1
SMITH_INPUTS = pathlib.Path(__file__).resolve().parent / "data" / "smith_inputs_integral_units.json"

# SHA-256 of json.dumps([U, S, V]) over pinned_smith_inputs(), each with u and
# v both on, u on only, v on only and neither, as _smith gave them when it
# took an IntMatrix and worked through helper closures
SMITH_DIGEST = "5d1cff6cb301c1b4885b835f31e641bc3130c5de661959ed99145aee0db142bf"


def pinned_smith_inputs():
    """(rows, column count): the frozen benchmark inputs, then 300 seeded
    random matrices up to 6 x 6 with entries in -9..9, some sparse."""
    inputs = [(rows, n) for n, rows in json.loads(SMITH_INPUTS.read_text())]
    rng = random.Random(2301)
    for _ in range(300):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        density = rng.choice((0.3, 0.6, 1.0))
        inputs.append((
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)],
            n,
        ))
    return inputs


class TestSmithTransforms:
    def test_untracked_transforms_change_nothing_else(self):
        rng = random.Random(1208)
        for _ in range(100):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            U, S, V = exactalg._smith(A, n)
            assert exactalg._smith(A, n, v=False) == (U, S, [])
            assert exactalg._smith(A, n, u=False) == ([], S, V)
            assert exactalg._smith(A, n, u=False, v=False) == ([], S, [])

    def test_transforms_pinned(self):
        # every transform, and so every lattice basis and --json document,
        # depends on the pivot order: the first least |entry| in row order,
        # rows cleared before columns, the first offending row added and
        # the sign fixed last
        digest = hashlib.sha256()
        for rows, n in pinned_smith_inputs():
            given = copy.deepcopy(rows)
            for u in (True, False):
                for v in (True, False):
                    digest.update(json.dumps(exactalg._smith(rows, n, u, v)).encode())
            assert rows == given
        assert digest.hexdigest() == SMITH_DIGEST


class TestCohomologyOfComplex:
    def test_matches_positionwise_oracle(self):
        rng = random.Random(1205)
        for _ in range(20):
            ranks = [rng.randint(1, 6) for _ in range(3)]
            d0, d1 = random_zero_composition(rng, *ranks, rng.randint(0, ranks[1]))
            groups = cohomology_of_complex(ranks, [M(d0, cols=ranks[0]), M(d1, cols=ranks[1])])
            expected = [
                naive_complex_cohomology([], d0, ranks[0]),
                naive_complex_cohomology(d0, d1, ranks[1]),
                naive_complex_cohomology(d1, [], ranks[2]),
            ]
            assert [(g.free_rank, g.invariant_factors) for g in groups] == expected

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            cohomology_of_complex([1, 2], [zero(3, 1)])
        with pytest.raises(ValueError):
            cohomology_of_complex([1, 2, 1], [zero(2, 1)])

    def test_composition_checked(self):
        d0 = M([[1], [0]])
        d1 = M([[1, 1]])
        with pytest.raises(CompositionNonzero):
            cohomology_of_complex([1, 2, 1], [d0, d1])


class TestComplexWideCancellation:
    """Unit pivots cancelled across the whole complex, from d_0 upward."""

    def check(self, ranks, diffs, pieces):
        groups = cohomology_of_complex(
            ranks, [M(d, cols=ranks[j]) for j, d in enumerate(diffs)]
        )
        got = [(g.free_rank, g.invariant_factors) for g in groups]
        padded = [[]] + diffs + [[]]
        naive = [
            naive_complex_cohomology(padded[j], padded[j + 1], rank)
            for j, rank in enumerate(ranks)
        ]
        assert got == naive
        # the summands give the groups directly: Z for a lone Z and for each
        # end of Z --0--> Z, Z/m at the target of Z --m--> Z for m = 2, 3
        summands = []
        for j in range(len(ranks)):
            free = sum(1 for piece in pieces if piece in ((j, None), (j, 0), (j - 1, 0)))
            torsion = [m for i, m in pieces if i == j - 1 and m in (2, 3)]
            g = FinAbGroup.from_torsion(torsion, free)
            summands.append((g.free_rank, g.invariant_factors))
        assert got == summands

    def test_matches_naive_oracle(self):
        rng = random.Random(1207)
        for _ in range(60):
            self.check(*random_cochain_complex(rng, rng.randint(4, 6)))

    def test_unit_pivots_beside_non_unit_remainders(self):
        # a ±1 summand of d_j next to a 2 or 3 summand of d_(j-1) or d_(j+1):
        # the pivots of d_j then drop rows of a remainder left by d_(j-1)
        # and columns of d_(j+1) that has entries other than ±1
        rng = random.Random(1208)
        seen = 0
        while seen < 40:
            ranks, diffs, pieces = random_cochain_complex(rng, rng.randint(4, 6))
            units = {j for j, m in pieces if m in (1, -1)}
            others = {j for j, m in pieces if m in (2, 3)}
            if any(j - 1 in others or j + 1 in others for j in units):
                seen += 1
                self.check(ranks, diffs, pieces)

    @pytest.mark.parametrize(
        "diffs, groups",
        [
            # d_0: 1 -> (2, 2) has no unit; the pivot of d_1: (a, b) -> a - b
            # drops one of the two rows of d_0's remainder
            ([{0: {0: 2}, 1: {0: 2}}, {0: {0: 1, 1: -1}}], ["0", "Z/2", "0"]),
            # the pivot of d_0: 1 -> (1, 1) drops a column of d_1: (a, b) -> 2a - 2b
            ([{0: {0: 1}, 1: {0: 1}}, {0: {0: 2, 1: -2}}], ["0", "0", "Z/2"]),
        ],
        ids=["rows", "columns"],
    )
    def test_dense_remainder_is_what_cancellation_leaves(self, monkeypatch, diffs, groups):
        shapes = []
        smith = exactalg._smith

        def recording(rows, n, *transforms):
            shapes.append((len(rows), n, transforms))
            return smith(rows, n, *transforms)

        monkeypatch.setattr(exactalg, "_smith", recording)
        assert [str(g) for g in cohomology_of_complex([1, 2, 1], diffs)] == groups
        # only the diagonal is read, so neither transform is tracked
        assert shapes == [(1, 1, (False, False))]

    def test_sparse_rows_checked(self):
        # d: Z -> Z^2 takes rows 0, 1 and column 0, each row nonempty
        for rows in (
            {2: {0: 1}},  # row index equal to the rank
            {0: {1: 1}},  # column index equal to the rank
            {-1: {0: 1}},  # negative row
            {0: {-1: 1}},  # negative column
            {0: {}},  # empty row
            {0: {0: 1}, 1: {}},  # empty row after a good one
            {0: {0: 1}, 1: {0: 1, -1: 1}},  # negative column after a good one
        ):
            with pytest.raises(ValueError) as raised:
                cohomology_of_complex([1, 2], [rows])
            assert str(raised.value) == "differential 0 does not map Z^1 to Z^2"
        with pytest.raises(ValueError) as raised:
            cohomology_of_complex([1, 2, 1], [{0: {0: 1}, 1: {0: 1}}, {1: {0: 1, 1: -1}}])
        assert str(raised.value) == "differential 1 does not map Z^2 to Z^1"
        assert [str(g) for g in cohomology_of_complex([1, 2], [{}])] == ["Z", "Z^2"]
        with pytest.raises(CompositionNonzero):
            cohomology_of_complex([1, 2, 1], [{0: {0: 1}}, {0: {0: 1, 1: 1}}])

    def test_rows_left_as_given(self):
        # the reduction copies each differential once; calling again gives
        # the same groups from the same rows
        rng = random.Random(1209)
        for _ in range(30):
            ranks, diffs, _ = random_cochain_complex(rng, rng.randint(4, 6))
            rows = [{i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(d) if any(row)}
                    for d in diffs]
            kept = copy.deepcopy(rows)
            first = cohomology_of_complex(ranks, rows)
            assert rows == kept
            assert cohomology_of_complex(ranks, rows) == first


class TestFinAbGroup:
    def test_canonical_form(self):
        assert FinAbGroup.from_torsion([1, 1]) == FinAbGroup(0)
        assert FinAbGroup.from_torsion([2, 3]) == FinAbGroup(0, (6,))
        assert FinAbGroup.from_torsion([2, 4]) == FinAbGroup(0, (2, 4))
        assert FinAbGroup.from_torsion([4, 6]) == FinAbGroup(0, (2, 12))

    def test_large_semiprime(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert FinAbGroup.from_torsion([n]) == FinAbGroup(0, (n,))
        assert FinAbGroup.from_torsion([10**9 + 7, 10**9 + 9]) == FinAbGroup(0, (n,))

    def test_canonical_form_matches_minor_gcds(self):
        rng = random.Random(116)
        for _ in range(300):
            factors = [rng.randint(1, 360) for _ in range(rng.randint(1, 5))]
            diagonal = [
                [f if i == j else 0 for j in range(len(factors))]
                for i, f in enumerate(factors)
            ]
            expected = tuple(d for d in minor_gcd_invariant_factors(diagonal) if d > 1)
            assert FinAbGroup.from_torsion(factors).invariant_factors == expected

    def test_str_and_json(self):
        assert str(FinAbGroup(0)) == "0"
        assert str(FinAbGroup(1)) == "Z"
        assert str(FinAbGroup(3)) == "Z^3"
        assert str(FinAbGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert FinAbGroup(2, (5,)).to_json() == {"free_rank": 2, "torsion": [5]}

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            FinAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FinAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FinAbGroup(-1)


class TestCoefficientCohomology:
    def test_free_part_only(self):
        expr = coefficient_cohomology(FinAbGroup(1), FinAbGroup(0), "K*")
        assert expr == GroupExpr("K*", 1, (), ())
        assert str(expr) == "K*"

    def test_torsion_subgroup_from_next_degree(self):
        expr = coefficient_cohomology(FinAbGroup(0), FinAbGroup(0, (2,)), "K*")
        assert expr == GroupExpr("K*", 0, (), (2,))
        assert str(expr) == "K*[2]"

    def test_trivial(self):
        expr = coefficient_cohomology(FinAbGroup(0), FinAbGroup(0), "K*")
        assert expr.is_trivial
        assert str(expr) == "0"

    def test_evaluate_at_integers(self):
        expr = GroupExpr("K*", 2, (2, 4), (3,))
        assert expr.evaluate() == FinAbGroup(2, (2, 4))

    def test_evaluate_at_cyclic(self):
        # G = Z/6: G^1 + G/4G + G[9] = Z/6 + Z/2 + Z/3
        expr = GroupExpr("K*", 1, (4,), (9,))
        assert expr.evaluate(6) == FinAbGroup.from_torsion([6, 2, 3])

    def test_json(self):
        expr = GroupExpr("K*", 1, (2,), (3,))
        assert expr.to_json() == {
            "symbol": "K*",
            "free": 1,
            "cotorsion": [2],
            "torsion_sub": [3],
        }
