"""Weil divisors for integral, torsion-free, cancellative, positive binoids.

The generator images span a full-dimensional pointed cone in the
difference group.  Height-1 primes correspond to the facets of that cone,
valuations are the primitive facet normals, and the divisor class group is
the cokernel of the map sending the difference group to the divisor group
via all the valuations at once.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import List, Optional, Tuple

from .binoid import BinoidPresentation, DifferenceGroup, difference_group
from .errors import FacetPrimeMismatch, NotFullDimensional, NotPointed
from .exactalg import FinAbGroup, IntMatrix, cokernel, invariant_factors
from .spectrum import PrimeIdeal, compute_spec, prime_label


def _dot(u: Tuple[int, ...], v: Tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _determinant(rows: list) -> int:
    """The determinant of a square matrix, by fraction-free (Bareiss) elimination.

    Every entry stays an integer minor of the input, so each division by
    the previous pivot is exact.
    """
    a, sign, previous = [list(row) for row in rows], 1, 1
    for k in range(len(a)):
        swap = next((i for i in range(k, len(a)) if a[i][k]), None)
        if swap is None:
            return 0
        if swap > k:
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * previous


def cone_facets(gamma: DifferenceGroup) -> List[Tuple[int, ...]]:
    """Primitive inner normals of the facets of cone(generator images).

    A candidate is the vector of signed (r-1)-minors of r-1 images over the
    gcd of the minors: primitive, orthogonal to the r-1 images and zero
    unless they span a hyperplane.  It survives when it is nonnegative on
    every image; its zero set spans the hyperplane, as the images already do.
    """
    r = gamma.rank
    images = gamma.all_images()
    span = IntMatrix.from_rows([list(v) for v in images], cols=r)
    if len(invariant_factors(span)) < r:
        raise NotFullDimensional("generator images do not span the full lattice")
    if r == 0:
        return []  # the zero cone has no facets

    normals = set()
    for wall in combinations(images, r - 1):
        minors = [(-1) ** k * _determinant([v[:k] + v[k + 1 :] for v in wall]) for k in range(r)]
        g = gcd(*minors)
        if not g:
            continue  # images in the wall do not span a hyperplane
        normal = tuple(x // g for x in minors)
        values = [_dot(normal, img) for img in images]
        if all(v <= 0 for v in values):
            normal = tuple(-x for x in normal)
            values = [-v for v in values]
        if any(v < 0 for v in values):
            continue  # not a supporting hyperplane
        normals.add(normal)

    dual = IntMatrix.from_rows([list(n) for n in normals], cols=r)
    if len(invariant_factors(dual)) < r:
        raise NotPointed("generator images contain a line")
    return sorted(normals)


@dataclass(frozen=True)
class ValuationMatrix:
    """Valuations of the generators, one row per height-1 prime."""

    matrix: IntMatrix
    row_primes: Tuple[PrimeIdeal, ...]
    normals: Tuple[Tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "row_primes": [list(p.generator_subset) for p in self.row_primes],
            "values": self.matrix.to_lists(),
        }


def valuation_matrix(M: BinoidPresentation) -> ValuationMatrix:
    """Facet valuations matched to the height-1 primes of the spectrum.

    The row for a facet belongs to the prime consisting of the generators
    with positive value; anything short of a bijection raises.
    """
    gamma = difference_group(M)
    S = compute_spec(M)
    height_one = [p for p, h in zip(S.primes, S._hasse_diagram()[1]) if h == 1]
    normals = cone_facets(gamma)
    images = gamma.all_images()
    by_prime, repeated = {}, None
    for normal in normals:
        values = tuple(_dot(normal, img) for img in images)
        key = PrimeIdeal(tuple(i for i, v in enumerate(values) if v > 0))
        if key in by_prime and repeated is None:
            repeated = key
        by_prime.setdefault(key, (normal, values))
    missing = next((p for p in height_one if p not in by_prime), None)
    if len(normals) != len(height_one):
        counts = f"{len(normals)} facets against {len(height_one)} height-1 primes"
        if missing is not None:
            raise FacetPrimeMismatch(f"{counts}: no facet selects {prime_label(S, missing)}")
        surplus = repeated or next(k for k in by_prime if k not in height_one)
        raise FacetPrimeMismatch(
            f"{counts}: a surplus facet selects {prime_label(S, surplus)}"
        )
    if repeated is not None:
        raise FacetPrimeMismatch(
            "two facets select the same prime %s" % prime_label(S, repeated)
        )
    if missing is not None:
        raise FacetPrimeMismatch(
            "facet supports do not match the height-1 primes: "
            "no facet selects %s" % prime_label(S, missing)
        )
    ordered = sorted(height_one)
    return ValuationMatrix(
        IntMatrix.from_rows([list(by_prime[p][1]) for p in ordered], cols=len(images)),
        tuple(ordered),
        tuple(by_prime[p][0] for p in ordered),
    )


def class_group(M: BinoidPresentation) -> FinAbGroup:
    """Divisor class group: cokernel of the valuation map on the difference group."""
    vm = valuation_matrix(M)
    gamma_rank = len(vm.normals[0]) if vm.normals else 0
    phi = IntMatrix.from_rows([list(n) for n in vm.normals], cols=gamma_rank)
    return cokernel(phi)


@dataclass(frozen=True)
class PrimeEvidence:
    """What certifies one height-1 prime: a value-1 element and a unit lattice."""

    prime: PrimeIdeal
    witness: Optional[Tuple[int, ...]]
    units_span_hyperplane: bool


@dataclass(frozen=True)
class RegularityReport:
    verdict: str  # "Certified" or "Unknown"
    evidence: Tuple[PrimeEvidence, ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "evidence": [
                {
                    "prime": list(e.prime.generator_subset),
                    "witness": list(e.witness) if e.witness is not None else None,
                    "units_span_hyperplane": e.units_span_hyperplane,
                }
                for e in self.evidence
            ],
        }


def regular_in_codim1_check(M: BinoidPresentation) -> RegularityReport:
    """Sufficient criterion for regularity in codimension 1.

    Certifies a prime when some generator has valuation exactly 1 and the
    value-0 generators span a hyperplane.  Values are nonnegative, so no
    sum of generators has value 1 unless one generator does.  Failure to
    certify is reported as Unknown, never as a negative.
    """
    gamma = difference_group(M)
    vm = valuation_matrix(M)
    n = M.generator_count
    candidates = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    evidence = []
    for prime, row in zip(vm.row_primes, vm.matrix.to_lists()):
        witness = next(
            (c for c in candidates if _dot(c, tuple(row)) == 1), None
        )
        zero_span = IntMatrix.from_rows(
            [list(gamma.image_of(i)) for i, v in enumerate(row) if v == 0],
            cols=gamma.rank,
        )
        hyperplane = len(invariant_factors(zero_span)) == gamma.rank - 1
        evidence.append(PrimeEvidence(prime, witness, hyperplane))
    certified = all(e.witness is not None and e.units_span_hyperplane for e in evidence)
    return RegularityReport("Certified" if certified else "Unknown", tuple(evidence))
