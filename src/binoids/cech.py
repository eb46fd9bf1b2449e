"""Čech cohomology of the unit sheaf on punctured binoid spectra.

Simplicial binoids get two independent routes: the per-vertex splitting of
the coordinate-cover complex, and the closed formula summing reduced link
cohomology, read off relative cochains on the complex's own faces with one
block per vertex (`SimplicialComplex._cochain_data`, not `_cech_complex`).
General integral binoids get a direct computation on the
minimal cover; for a cancellative binoid the units of a localization M_F
are the lattice spanned by the generators of the face generated by F.

One constructor, `_cech_complex`, lays out the Čech complex of all three
covers: the coordinate cover of a simplicial binoid, the minimal cover of
an open subset (indexed by its crosscut complex) and the minimal cover of
a general integral binoid.  Each caller only names the index simplices,
the basis of the group at each and the restriction maps.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple

from .binoid import (
    BinoidPresentation,
    DifferenceGroup,
    difference_group,
    from_simplicial,
    radical_complex,
)
from .divisors import cone_facets
from .errors import (
    DegenerateLocalization,
    NotCancellative,
    VoidComplex,
)
from .exactalg import (
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    _dense,
    _reduce_complex,
    _sparse_complex,
    cohomology_of_complex,
    column_lattice_basis,
    solve_columns,
)
from .simplicial import SimplicialComplex
from .spectrum import (
    PrimeIdeal,
    SpecPoset,
    compute_spec,
    minimal_cover,
    nerve,
    prime_label,
    punctured_spectrum,
)


@dataclass(frozen=True, init=False)
class CechComplex:
    """Cochain complex of free groups with a label per coordinate.

    Labels in degree j are pairs (face or cover subset, coordinate); the
    differentials carry the alternating-sign restriction maps.  They are
    given as IntMatrix or as sparse rows {row: {column: nonzero entry}},
    kept as sparse rows, and checked once, here, to compose to zero.
    """

    labels_by_degree: Tuple[Tuple, ...]
    _rows: Tuple[dict, ...] = field(repr=False)

    def __init__(self, labels_by_degree, differentials):
        labels = tuple(tuple(degree) for degree in labels_by_degree)
        rows = _sparse_complex([len(degree) for degree in labels], list(differentials))
        object.__setattr__(self, "labels_by_degree", labels)
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(len(degree) for degree in self.labels_by_degree)

    @property
    def differentials(self) -> Tuple[IntMatrix, ...]:
        """The differentials as dense matrices, built on each call."""
        ranks = self.ranks
        return tuple(_dense(d, ranks[j + 1], ranks[j]) for j, d in enumerate(self._rows))

    def cohomology(self) -> List[FinAbGroup]:
        return _reduce_complex(list(self.ranks), list(self._rows))

    def to_json(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "labels": [
                [[list(face) if isinstance(face, tuple) else face, coord]
                 for face, coord in degree]
                for degree in self.labels_by_degree
            ],
            "differentials": [d.to_lists() for d in self.differentials],
        }


def _cech_complex(simplices, coordinates, restriction) -> CechComplex:
    """The Čech complex of groups Z^coordinates(J) over an index complex.

    simplices[k] lists the k-simplices J (tuples); coordinates(J) labels
    the basis of the group at J; restriction(sub, K) yields the (row,
    column, entry) triples of the nonzero entries of the map from the
    group at a facet sub of K into the group at K.  The differential sums
    (-1)^l times the map from the facet dropping K[l]; as these facets
    differ, their blocks never overlap.
    """
    labels, offsets = [], {}
    for k_simplices in simplices:
        degree = []
        for J in k_simplices:
            offsets[J] = len(degree)
            degree.extend((J, c) for c in coordinates(J))
        labels.append(tuple(degree))
    diffs = []
    for k in range(1, len(simplices)):
        rows = {}
        for K in simplices[k]:
            for l in range(len(K)):
                sub = K[:l] + K[l + 1 :]
                sign = (-1) ** l
                for a, b, x in restriction(sub, K):
                    rows.setdefault(offsets[K] + a, {})[offsets[sub] + b] = sign * x
        diffs.append(rows)
    return CechComplex(tuple(labels), tuple(diffs))


def _same_coordinate(coordinates):
    """The restriction sending each coordinate of sub to the same one of K."""

    def restriction(sub, K):
        position = {c: a for a, c in enumerate(coordinates(K))}
        return [(position[c], b, 1) for b, c in enumerate(coordinates(sub))]

    return restriction


# ---------------------------------------------------------------------------
# simplicial binoids


def picard_complex_simplicial(delta: SimplicialComplex) -> CechComplex:
    """The unit-sheaf Čech complex on the coordinate cover, split by vertex.

    Degree j has one Z per pair (F in Delta_j, v in F); the component of
    the differential at (F, v) sums (-1)^l over the subfaces obtained by
    dropping the l-th vertex of F, skipping v itself.
    """
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    simplices = [delta.faces(d) for d in range(delta.dimension + 1)]
    return _cech_complex(simplices, tuple, _same_coordinate(tuple))


def local_picard_formula(delta: SimplicialComplex) -> List[FinAbGroup]:
    """H^j of the unit sheaf via reduced link cohomology, degrees 0..dim.

    H^j = ⊕_v H~^(j-1)(lk v), and each summand is read off Δ's own faces:
    by excision and the cone st w_v, H~^(j-1)(lk v) ≅ H^j(Δ, dl v ∪ st w_v),
    where dl v is the deletion of v and w_v the vertex sharing the most
    facets with v (first in vertex order on ties).  The cochains of this
    pair are the faces F ∋ v with no facet above F through w_v; as cells
    (F, v) of every v they form one block complex, reduced at once.

    >>> delta = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    >>> [str(g) for g in local_picard_formula(delta)]
    ['0', 'Z', '0']
    """
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    # the facets through both v and w_v: edges come in lexicographic order, so
    # v meets its neighbours in vertex order and keeps the first best one
    shared = dict.fromkeys(delta.vertices, 0)
    for edge, above in delta._faces_by_dim().get(1, {}).items():
        for v in edge:
            if above.bit_count() > shared[v].bit_count():
                shared[v] = above
    cells = lambda face, above: [v for v in face if not above & shared[v]]
    return cohomology_of_complex(*delta._cochain_data(0, cells))


def local_picard_cech(delta: SimplicialComplex) -> List[FinAbGroup]:
    """Same groups as local_picard_formula, by running the Čech complex.

    >>> delta = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    >>> [str(g) for g in local_picard_cech(delta)]
    ['0', 'Z', '0']
    """
    return picard_complex_simplicial(delta).cohomology()


def constant_cohomology(target, opens: Optional[Set[PrimeIdeal]] = None) -> List[FinAbGroup]:
    """Integer cohomology of a complex, or of an open set via its cover nerve.

    For a spectrum the open set defaults to the punctured spectrum.
    """
    if isinstance(target, SimplicialComplex):
        return target.cohomology()
    if opens is None:
        opens = punctured_spectrum(target)
    cover = minimal_cover(target, opens)
    return nerve(target, cover).cohomology()


def pic_open_subset(delta: SimplicialComplex, opens: Set[PrimeIdeal]) -> List[FinAbGroup]:
    """Unit-sheaf Čech cohomology of an open subset of a simplicial spectrum.

    The minimal cover consists of basic opens D(G_i) for faces G_i; the
    crosscut complex indexes the intersections, and the degree-k group is
    one Z^(union of faces) per crosscut k-face.  Degree 1 is Pic of the
    open set.
    """
    return _pic_open_subset(compute_spec(from_simplicial(delta)), delta, opens)


def _pic_open_subset(
    S: SpecPoset, delta: SimplicialComplex, opens: Set[PrimeIdeal]
) -> List[FinAbGroup]:
    supports = minimal_cover(S, opens)
    position = {v: i for i, v in enumerate(delta.vertices)}
    faces = [tuple(delta.vertices[i] for i in sup) for sup in supports]
    ccc = delta.crosscut(faces)

    simplices = [ccc.faces(k) for k in range(ccc.dimension + 1)]
    unions = {
        J: sorted({v for j in J for v in faces[j - 1]}, key=position.get)
        for k_simplices in simplices
        for J in k_simplices
    }
    restriction = _same_coordinate(unions.__getitem__)
    return _cech_complex(simplices, unions.__getitem__, restriction).cohomology()


def stanley_reisner_cohomology(
    delta: SimplicialComplex, symbol: str = "K*"
) -> List[Tuple[GroupExpr, FinAbGroup]]:
    """Unit-sheaf cohomology over a Stanley-Reisner algebra, degree by degree.

    Each degree splits into a constant part with coefficients in the unit
    group of the field (kept symbolic) and the integer part of the
    underlying simplicial binoid.
    """
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    constant = delta.cohomology_with_coefficients(symbol)
    integer = local_picard_formula(delta)
    return list(zip(constant, integer))


# ---------------------------------------------------------------------------
# general integral binoids


@dataclass(frozen=True)
class UnitSubgroup:
    """Units of a localization M_F, as a sublattice of the difference group."""

    ambient: DifferenceGroup
    basis: IntMatrix  # columns are independent generators in Gamma-coordinates
    face: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.basis.cols

    def to_json(self) -> dict:
        return {
            "face": list(self.face),
            "rank": self.rank,
            "basis": self.basis.to_lists(),
        }


def units_of_localization(
    M: BinoidPresentation, gamma: DifferenceGroup, face: Sequence[int]
) -> UnitSubgroup:
    """Subgroup of the difference group inverted by localizing at a face.

    The primes disjoint from F form a union-closed family, so their union
    p_F is the largest of them.  For a cancellative binoid the units of M_F
    are spanned by the images of the generators outside p_F.
    """
    return _units_of_localization(compute_spec(M), gamma, face)


def _units_of_localization(
    S: SpecPoset, gamma: DifferenceGroup, face: Sequence[int]
) -> UnitSubgroup:
    face = tuple(sorted(face))
    avoiding = [p for p in S.primes if not set(p.generator_subset) & set(face)]
    if not avoiding:
        raise DegenerateLocalization(
            "no prime avoids the face %s: the localization is zero" % (list(face),)
        )
    largest = avoiding[-1].generator_subset
    outside = [i for i in range(gamma.images.cols) if i not in largest]
    images = [[row[i] for i in outside] for row in gamma.images.entries]
    basis = column_lattice_basis(IntMatrix.from_rows(images, cols=len(outside)))
    return UnitSubgroup(gamma, basis, face)


def _check_cancellative(S: SpecPoset, gamma: DifferenceGroup) -> None:
    """Every prime's complement must be the generators on one face of the cone.

    The face is cut out by the facet normals that vanish on the complement;
    a prime failing this shows the presentation is not cancellative, and
    then the difference group does not see the units of the localizations.
    """
    normals = cone_facets(gamma)
    values = IntMatrix.from_rows(normals, cols=gamma.rank) * gamma.images
    zero_sets = [{i for i, v in enumerate(row) if v == 0} for row in values.entries]
    everything = set(range(gamma.images.cols))
    for p in S.primes:
        outside = everything - set(p.generator_subset)
        face = everything.intersection(*(z for z in zero_sets if outside <= z))
        if face != outside:
            raise NotCancellative(
                "not cancellative: the generators outside the prime %s "
                "are not the generators on a face of the cone" % prime_label(S, p)
            )


@dataclass(frozen=True)
class LocalPicardResult:
    """Čech output on the minimal cover: groups, complex, and cover supports."""

    groups: Tuple[FinAbGroup, ...]
    cech: CechComplex
    cover: Tuple[Tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "groups": [g.to_json() for g in self.groups],
            "cover": [list(sup) for sup in self.cover],
            "complex": self.cech.to_json(),
        }


def local_picard_general(M: BinoidPresentation) -> LocalPicardResult:
    """Unit-sheaf Čech cohomology on the minimal cover of the punctured spectrum.

    Every intersection of basic opens of an integral binoid is nonempty,
    so the index complex is a full simplex.  J in K gives p_K in p_J, so
    the unit group over J lies in the one over K and the restriction maps
    are solvable in the recorded bases; degree 1 is the local Picard group.
    """
    gamma = difference_group(M)
    S = compute_spec(M)
    _check_cancellative(S, gamma)
    cover = minimal_cover(S, punctured_spectrum(S))

    simplices = [
        list(combinations(range(len(cover)), size)) for size in range(1, len(cover) + 1)
    ]
    units = {
        J: _units_of_localization(S, gamma, {i for j in J for i in cover[j]})
        for k_simplices in simplices
        for J in k_simplices
    }

    def restriction(sub, K):
        block = solve_columns(units[K].basis, units[sub].basis)
        return [
            (a, b, x) for a, row in enumerate(block.entries) for b, x in enumerate(row) if x
        ]

    cech = _cech_complex(simplices, lambda J: range(units[J].rank), restriction)
    return LocalPicardResult(tuple(cech.cohomology()), cech, tuple(cover))


# ---------------------------------------------------------------------------
# monomial algebras


@dataclass(frozen=True)
class MonomialReport:
    """Reduced-part cohomology of a monomial algebra, radical or not."""

    presentation: BinoidPresentation
    complex: SimplicialComplex
    is_radical: bool
    degrees: Tuple[Tuple[GroupExpr, FinAbGroup], ...]
    nonvanishing_h1: bool
    unipotent_part: str = "NOT COMPUTED"

    def to_json(self) -> dict:
        return {
            "complex": [list(f) for f in self.complex.facets],
            "is_radical": self.is_radical,
            "degrees": [
                {"constant": expr.to_json(), "integer": part.to_json()}
                for expr, part in self.degrees
            ],
            "nonvanishing_h1": self.nonvanishing_h1,
            "unipotent_part": self.unipotent_part,
        }


def monomial_report(M: BinoidPresentation) -> MonomialReport:
    """Splitting report for the algebra of a monomial ideal.

    The radical complex carries the reduced cohomology; degree 1 of the
    reduced part already decides nonvanishing of the Picard group.  The
    unipotent contribution has no finite presentation, so it is reported
    untouched.  radical_complex rejects an element relation.
    """
    delta = radical_complex(M)
    exponents = [rel.lhs for rel in M.relations]
    is_radical = all(
        any(all(r >= m for r, m in zip(radical, monomial)) for monomial in exponents)
        for radical in (tuple(min(e, 1) for e in exp) for exp in exponents)
    )
    degrees = tuple(stanley_reisner_cohomology(delta, "K*"))
    if len(degrees) > 1:
        h1_constant, h1_integer = degrees[1]
        nonvanishing = not (h1_constant.is_trivial and h1_integer.is_trivial)
    else:
        nonvanishing = False
    return MonomialReport(M, delta, is_radical, degrees, nonvanishing)
