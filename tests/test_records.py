"""The value classes are immutable records, and importing the package loads
no dataclass, inspection or typing machinery.

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

from binoids.binoid import BinoidPresentation, Relation, difference_group
from binoids.cech import local_picard_general, monomial_report, picard_complex_simplicial
from binoids.divisors import regular_in_codim1_check, valuation_matrix
from binoids.exactalg import FinAbGroup, GroupExpr, IntMatrix, smith_normal_form
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import SpecPoset, spectrum_of_complex

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may import typing on their own
    code = (
        "import sys; before = set(sys.modules); import binoids.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
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
        ("rank", "images", "relation_lattice"),
        True,
        "DifferenceGroup(rank=2, images=IntMatrix(rows=2, cols=2, entries=((1, 0), (0, 1))), "
        "relation_lattice=IntMatrix(rows=2, cols=0, entries=((), ())))",
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
    pytest.param(
        lambda: regular_in_codim1_check(free2()).evidence[0],
        lambda: regular_in_codim1_check(free2()).evidence[1],
        ("prime", "witness", "units_span_hyperplane"),
        True,
        "PrimeEvidence(prime=PrimeIdeal(generator_subset=(0,)), witness=(1, 0), "
        "units_span_hyperplane=True)",
        id="PrimeEvidence",
    ),
    pytest.param(
        lambda: regular_in_codim1_check(BinoidPresentation(("x",), ())),
        lambda: regular_in_codim1_check(free2()),
        ("verdict", "evidence"),
        True,
        "RegularityReport(verdict='Certified', evidence=(PrimeEvidence("
        "prime=PrimeIdeal(generator_subset=(0,)), witness=(1,), units_span_hyperplane=True),))",
        id="RegularityReport",
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


def test_not_equal_to_the_tuple_of_its_fields():
    assert FinAbGroup(0, (2,)) != (0, (2,))
    assert (0, (2,)) != FinAbGroup(0, (2,))
