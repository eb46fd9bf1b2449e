"""Weil divisors for integral, torsion-free, cancellative, positive binoids.

The generator images span a full-dimensional pointed cone in the
difference group.  Height-1 primes correspond to the facets of that cone,
valuations are the primitive facet normals, and the divisor class group is
the cokernel of the map sending the difference group to the divisor group
via all the valuations at once.

Each facet is read off a minimal nonempty prime of the spectrum, as the
kernel line of the images outside it.  No facet is missed: a facet
normal takes equal values on the two sides of every relation, so the
generators where it is positive form a prime P, and P holds a minimal
nonempty prime Q.  The images outside Q contain those on the facet, so
they span either the whole space, and Q has no facet, or the facet's
hyperplane, and then Q = P.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from ._record import Record, setfield
from .binoid import BinoidPresentation, DifferenceGroup, _drop_free, difference_group
from .errors import FacetPrimeMismatch, NotFullDimensional, NotPointed, PreconditionError
from .exactalg import FinAbGroup, IntMatrix, _dense_factors, cokernel
from .simplicial import _bits
from .spectrum import PrimeIdeal, SpecPoset, _labels, _prime, compute_spec


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(map(mul, u, v))


def _kernel_line(vectors: list, r: int) -> list | None:
    """A nonzero integer x orthogonal to the given vectors, or None unless
    they span a hyperplane.  Integer Gauss-Jordan elimination leaves each
    pivot row nonzero at its pivot and at the one free column f only, so
    x_f = the lcm of the pivots fixes the rest of x."""
    rest, done = [list(v) for v in vectors], []
    for c in range(r):
        pivot = next((row for row in rest if row[c]), None)
        if pivot is not None:  # else c is a free column
            rest.remove(pivot)
            for row in rest + [row for row, _ in done]:
                a, b = pivot[c], row[c]
                if b:
                    row[:] = [a * x - b * y for x, y in zip(row, pivot)]
                    g = gcd(*row) or 1  # keeps the entries small
                    row[:] = [x // g for x in row]
            done.append((pivot, c))
    if len(done) != r - 1:
        return None
    (f,) = set(range(r)).difference(c for _, c in done)
    x = [0] * r
    x[f] = lcm(*(row[c] for row, c in done))
    for row, c in done:
        x[c] = -row[f] * x[f] // row[c]
    return x


def _facet_normal(images: list, mask: int, r: int) -> tuple | None:
    """The primitive normal zero on the images outside the prime of a
    nonzero bitmask and positive on those of it, or None when there is none."""
    kernel = _kernel_line([v for i, v in enumerate(images) if not mask >> i & 1], r)
    if kernel is None:
        return None
    inside = [images[i] for i in _bits(mask)]
    g = gcd(*kernel) * (1 if _dot(kernel, inside[0]) > 0 else -1)
    normal = tuple(x // g for x in kernel)
    return normal if all(_dot(normal, v) > 0 for v in inside) else None


def cone_facets(gamma: DifferenceGroup, S: SpecPoset) -> dict:
    """Per minimal nonempty prime p of S, in the order of S, the primitive
    inner normal of the facet of cone(generator images) whose generators
    are those outside p, or None when there is no such facet.
    """
    return {_prime(mask): normal for mask, normal in _cone_facets(gamma, S).items()}


def _cone_facets(gamma: DifferenceGroup, S: SpecPoset) -> dict:
    """`cone_facets` keyed on the primes' bitmasks.

    Primes come sorted by size, so the minimal nonempty ones are those
    holding none kept before.  When each has its facet, these are all the
    facets; otherwise every nonempty prime is tried, as some facets may
    belong to larger ones.  All the facet normals must span the dual space:
    the cone must be pointed.
    """
    r = gamma.rank
    images = gamma.all_images()
    if len(_dense_factors(images, r)) < r:
        raise NotFullDimensional("generator images do not span the full lattice")
    primes = [mask for mask in S._primes if mask]
    facets = {}
    for mask in primes:
        if all(q & ~mask for q in facets):
            facets[mask] = _facet_normal(images, mask, r)
    normals = list(facets.values())
    if None in normals:
        normals = [_facet_normal(images, mask, r) for mask in primes]
        normals = [normal for normal in normals if normal]
    if len(_dense_factors(normals, r)) < r:
        raise NotPointed("generator images contain a line")
    return facets


class ValuationMatrix(Record):
    """Valuations of the generators, one row per height-1 prime."""

    _fields = ("matrix", "row_primes", "normals")

    def __init__(
        self,
        matrix: IntMatrix,
        row_primes: tuple[PrimeIdeal, ...],
        normals: tuple[tuple[int, ...], ...],
    ):
        setfield(self, "matrix", matrix)
        setfield(self, "row_primes", row_primes)
        setfield(self, "normals", normals)

    def to_json(self) -> dict:
        return {
            "row_primes": [list(p.generator_subset) for p in self.row_primes],
            "values": self.matrix.to_lists(),
        }


def valuation_matrix(M: BinoidPresentation) -> ValuationMatrix:
    """Facet valuations matched to the height-1 primes of the spectrum, the
    minimal nonempty ones; a prime without a facet raises.
    """
    gamma = difference_group(M)
    S = compute_spec(M)
    facets = _cone_facets(gamma, S)
    missing = next((mask for mask, normal in facets.items() if normal is None), None)
    if missing is not None:
        raise FacetPrimeMismatch(
            "facet supports do not match the height-1 primes: "
            "no facet selects %s" % _labels(S, (missing,))[0]
        )
    images = gamma.all_images()
    normals = dict(sorted((_prime(mask), normal) for mask, normal in facets.items()))
    return ValuationMatrix(
        IntMatrix.from_rows([[_dot(normal, v) for v in images] for normal in normals.values()],
                            cols=len(images)),
        tuple(normals),
        tuple(normals.values()),
    )


def class_group(M: BinoidPresentation) -> FinAbGroup:
    """Divisor class group: cokernel of the valuation map on the difference group.

    It is decided on N, M without its free generators: Cl(N ∧ ℕ^k) = Cl(N),
    as Γ_M = Γ_N ⊕ Z^k, each free generator adds the facet that its own
    coordinate is positive on, and the valuation matrix gains an identity
    block.  N passes the checks exactly when M does, yet a refused N
    falls back to M, which refuses in its own words.
    """
    N = _drop_free(M)
    if N is not M:
        try:
            return class_group(N)
        except PreconditionError:
            pass
    vm = valuation_matrix(M)
    gamma_rank = len(vm.normals[0]) if vm.normals else 0
    phi = IntMatrix.from_rows([list(n) for n in vm.normals], cols=gamma_rank)
    return cokernel(phi)
