"""The value classes are immutable records, and importing the package loads
no dataclass, inspection or typing machinery, nor the command line's
former argparse and gettext.

Each record equals only a record of the same class with equal compared
fields, hashes as it compares, refuses assignment and deletion, keeps the
repr its fields give and survives copying and pickling; the caches a
complex or a spectrum fills on first use are neither compared nor lost.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from binoids.binoid import BinoidPresentation, Relation, difference_group, smash_free
from binoids.cech import local_picard_general, monomial_report, picard_complex_simplicial
from binoids.divisors import valuation_matrix
from binoids.exactalg import (
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    _canonical_torsion,
    smith_normal_form,
)
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import SpecPoset, spectrum_of_complex

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may import typing on their own
    code = (
        "import sys; before = set(sys.modules); import binoids.cli; "
        "print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect', 'typing'}"
        " & (set(sys.modules) - before)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def xy_z2():
    return BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 0), (0, 0, 2)),))


def free2():
    return BinoidPresentation(("x", "y"), ())


def edge():
    return SimplicialComplex.from_facets([(1, 2)])


def two_points():
    return SimplicialComplex.from_facets([(1,), (2,)])


def warm(record):
    """Fill the caches a complex or a spectrum builds on first use."""
    if isinstance(record, SimplicialComplex):
        record.all_faces()
        record.has_face((1,))
    elif isinstance(record, SpecPoset):
        record._hasse_diagram()
        record.position_of(record.primes[0])
    return record


# (make, make another, compared fields, hashable, repr)
RECORDS = [
    pytest.param(
        lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
        lambda: IntMatrix.from_rows([[1, 2], [3, 5]]),
        ("rows", "cols", "entries"),
        True,
        "IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))",
        id="IntMatrix",
    ),
    pytest.param(
        lambda: smith_normal_form(IntMatrix.from_rows([[2]])),
        lambda: smith_normal_form(IntMatrix.from_rows([[3]])),
        ("U", "S", "V"),
        True,
        "SmithDecomposition(U=IntMatrix(rows=1, cols=1, entries=((1,),)), "
        "S=IntMatrix(rows=1, cols=1, entries=((2,),)), "
        "V=IntMatrix(rows=1, cols=1, entries=((1,),)))",
        id="SmithDecomposition",
    ),
    pytest.param(
        lambda: FinAbGroup(1, (2, 4)),
        lambda: FinAbGroup(1, (2,)),
        ("free_rank", "invariant_factors"),
        True,
        "FinAbGroup(free_rank=1, invariant_factors=(2, 4))",
        id="FinAbGroup",
    ),
    pytest.param(
        lambda: GroupExpr("K*", 1, [2], [3]),
        lambda: GroupExpr("K*", 1, (2,)),
        ("symbol", "free_power", "cotorsion", "torsion_sub"),
        True,
        "GroupExpr(symbol='K*', free_power=1, cotorsion=(2,), torsion_sub=(3,))",
        id="GroupExpr",
    ),
    pytest.param(
        lambda: Relation([1, 1, 0], [0, 0, 2]),
        lambda: Relation((1, 1, 0), None),
        ("lhs", "rhs"),
        True,
        "Relation(lhs=(1, 1, 0), rhs=(0, 0, 2))",
        id="Relation",
    ),
    pytest.param(
        xy_z2,
        lambda: BinoidPresentation(("x", "y", "z"), ()),
        ("generator_names", "relations"),
        True,
        "BinoidPresentation(generator_names=('x', 'y', 'z'), "
        "relations=(Relation(lhs=(1, 1, 0), rhs=(0, 0, 2)),))",
        id="BinoidPresentation",
    ),
    pytest.param(
        lambda: difference_group(free2()),
        lambda: difference_group(xy_z2()),
        ("rank", "images"),
        True,
        "DifferenceGroup(rank=2, images=IntMatrix(rows=2, cols=2, entries=((1, 0), (0, 1))))",
        id="DifferenceGroup",
    ),
    pytest.param(
        edge,
        two_points,
        ("vertices", "facets"),
        True,
        "SimplicialComplex(vertices=(1, 2), facets=((1, 2),))",
        id="SimplicialComplex",
    ),
    pytest.param(
        lambda: spectrum_of_complex(two_points()),
        lambda: spectrum_of_complex(edge()),
        ("generator_names", "primes"),
        True,
        "SpecPoset(generator_names=(1, 2), primes=(PrimeIdeal(generator_subset=(0,)), "
        "PrimeIdeal(generator_subset=(1,)), PrimeIdeal(generator_subset=(0, 1))))",
        id="SpecPoset",
    ),
    pytest.param(
        lambda: picard_complex_simplicial(edge()),
        lambda: picard_complex_simplicial(two_points()),
        ("labels_by_degree",),
        False,  # the sparse rows are dicts
        "CechComplex(labels_by_degree=((((1,), 1), ((2,), 2)), (((1, 2), 1), ((1, 2), 2))))",
        id="CechComplex",
    ),
    pytest.param(
        lambda: local_picard_general(free2()),
        lambda: local_picard_general(xy_z2()),
        ("groups", "cech", "cover"),
        False,  # through its CechComplex
        "LocalPicardResult(groups=(FinAbGroup(free_rank=0, invariant_factors=()), "
        "FinAbGroup(free_rank=0, invariant_factors=())), "
        "cech=CechComplex(labels_by_degree=((((0,), 0), ((1,), 0)), (((0, 1), 0), ((0, 1), 1)))), "
        "cover=((0,), (1,)))",
        id="LocalPicardResult",
    ),
    pytest.param(
        lambda: monomial_report(BinoidPresentation(("x", "y"), (Relation((2, 0), None),))),
        lambda: monomial_report(BinoidPresentation(("x", "y"), (Relation((1, 0), None),))),
        ("presentation", "complex", "is_radical", "degrees", "nonvanishing_h1", "unipotent_part"),
        True,
        "MonomialReport(presentation=BinoidPresentation(generator_names=('x', 'y'), "
        "relations=(Relation(lhs=(2, 0), rhs=None),)), "
        "complex=SimplicialComplex(vertices=('y',), facets=(('y',),)), is_radical=False, "
        "degrees=((GroupExpr(symbol='K*', free_power=1, cotorsion=(), torsion_sub=()), "
        "FinAbGroup(free_rank=1, invariant_factors=())),), "
        "nonvanishing_h1=False, unipotent_part='NOT COMPUTED')",
        id="MonomialReport",
    ),
    pytest.param(
        lambda: valuation_matrix(free2()),
        lambda: valuation_matrix(xy_z2()),
        ("matrix", "row_primes", "normals"),
        True,
        "ValuationMatrix(matrix=IntMatrix(rows=2, cols=2, entries=((1, 0), (0, 1))), "
        "row_primes=(PrimeIdeal(generator_subset=(0,)), PrimeIdeal(generator_subset=(1,))), "
        "normals=((1, 0), (0, 1)))",
        id="ValuationMatrix",
    ),
]


@pytest.mark.parametrize("make, make_other, fields, hashable, shown", RECORDS)
def test_record(make, make_other, fields, hashable, shown):
    a, b, other = warm(make()), make(), make_other()
    cls = type(a)

    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != tuple(getattr(a, name) for name in fields)
    subclassed = copy.copy(b)
    object.__setattr__(subclassed, "__class__", type("Sub", (cls,), {}))
    assert a != subclassed and subclassed != a

    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)

    for attempt in (
        lambda: setattr(a, fields[0], None),
        lambda: delattr(a, fields[0]),
        lambda: setattr(a, "extra", None),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert a == b and repr(a) == repr(b) == shown

    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(a, k)) for k in protocols] + [copy.copy(a), copy.deepcopy(a)]
    for c in copies:
        assert type(c) is cls and c == a and c == b and repr(c) == shown
        assert vars(c) == vars(a)  # caches included


# each constructor's refusal of fields outside its domain, with its message
REFUSED = [
    (lambda: Relation((1, 0), (0, 1, 0)), "relation sides over different generators"),
    (lambda: Relation((1, 0), (1, 0)), "relation with identical sides"),
    (lambda: BinoidPresentation(("x", "x"), ()), "duplicate generator names"),
    (lambda: BinoidPresentation(("x", "y"), (Relation((1,), (2,)),)),
     "relation arity does not match generators"),
    (lambda: smash_free(BinoidPresentation(("x",), ()), -1), "count must be nonnegative"),
    (lambda: IntMatrix(-1, 0, ()), "negative dimensions"),
    (lambda: IntMatrix(2, 1, ((1,),)), "row count mismatch"),
    (lambda: IntMatrix(1, 2, ((1,),)), "column count mismatch"),
    (lambda: IntMatrix.from_rows([[1]]) * IntMatrix.from_rows([[1, 2], [3, 4]]),
     "shape mismatch in matrix product"),
    (lambda: _canonical_torsion([0]), "torsion orders must be nonzero"),
    (lambda: GroupExpr("K*", -1), "free power must be nonnegative"),
    (lambda: GroupExpr("K*", 1).evaluate(0), "modulus must be positive"),
    (lambda: SimplicialComplex.make([1, 2, 1], [(1, 2)]), "duplicate vertex labels"),
    (lambda: SimplicialComplex.make([1, 2], [(1, 2, 1)]), "face with repeated vertex: (1, 2, 1)"),
    # 1 and "1" differ, but `spec` and every other text output would show both as <1>
    (lambda: SimplicialComplex.make([1, "1"], [(1,)]), "two vertices print as 1"),
    # bool is an int subclass, but no exponent, entry or count
    (lambda: Relation((True, 0), (0, 2)), "exponents must be nonnegative integers, not True"),
    (lambda: Relation((1, 0), (0, 2.0)), "exponents must be nonnegative integers, not 2.0"),
    (lambda: IntMatrix(1, 1, ((True,),)), "entries must be exact integers"),
    (lambda: IntMatrix.from_rows([[1, 2.0]]), "entries must be exact integers"),
    (lambda: IntMatrix(True, 0, ((),)), "dimensions must be integers, not (True, 0)"),
    (lambda: FinAbGroup(True), "free rank must be an integer, not True"),
    (lambda: FinAbGroup(1.5), "free rank must be an integer, not 1.5"),
    (lambda: FinAbGroup(-1), "free rank must be nonnegative"),
    (lambda: GroupExpr("K*", True), "free power must be an integer, not True"),
    (lambda: GroupExpr("K*", 2.0), "free power must be an integer, not 2.0"),
    (lambda: GroupExpr("K*", 1, (True,), (0,)), "cotorsion orders must be integers >= 2, not True"),
    (lambda: GroupExpr("K*", 1, (1,)), "cotorsion orders must be integers >= 2, not 1"),
    (lambda: GroupExpr("K*", 1, (2.0,)), "cotorsion orders must be integers >= 2, not 2.0"),
    (lambda: GroupExpr("K*", 1, (), (0,)), "torsion_sub orders must be integers >= 2, not 0"),
    (lambda: GroupExpr("K*", 1, (), (-2,)), "torsion_sub orders must be integers >= 2, not -2"),
    (lambda: smash_free(BinoidPresentation(("x",), ()), True), "count must be an integer, not True"),
    (lambda: smash_free(BinoidPresentation(("x",), ()), 1.5), "count must be an integer, not 1.5"),
]


@pytest.mark.parametrize(
    "make, message",
    REFUSED,
    ids=["sides", "identical", "names", "arity", "smash", "dimensions", "rows", "columns",
         "product", "torsion", "free-power", "modulus", "vertices", "face", "same-print",
         "bool-exponent", "float-exponent", "bool-entry", "float-entry", "bool-dimension",
         "bool-free-rank", "float-free-rank", "negative-free-rank", "bool-free-power",
         "float-free-power", "bool-cotorsion", "unit-cotorsion", "float-cotorsion",
         "zero-torsion-sub", "negative-torsion-sub", "bool-smash", "float-smash"],
)
def test_refused_fields(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


def test_not_equal_to_the_tuple_of_its_fields():
    assert FinAbGroup(0, (2,)) != (0, (2,))
    assert (0, (2,)) != FinAbGroup(0, (2,))
