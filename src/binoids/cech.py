"""Čech cohomology of the unit sheaf on punctured binoid spectra.

Simplicial binoids get two independent routes: the per-vertex splitting of
the coordinate-cover complex, and the closed formula summing reduced link
cohomology, read off relative cochains on the complex's own faces with one
block per vertex (`SimplicialComplex._cochain_data`, not `_cech_complex`).
General integral binoids get a direct computation on the minimal cover;
for a cancellative binoid the units of a localization M_F are the lattice
spanned by the generators outside p_F, the balanced interior of F's
complement: one Smith form per distinct p_F, one block per pair of them.

One constructor, `_cech_complex`, lays out the Čech complex of all three
covers: the coordinate cover of a simplicial binoid, the minimal cover of
an open subset (indexed by its crosscut complex) and the minimal cover of
a general integral binoid.  Each caller only names the index simplices,
the basis of the group at each and the restriction maps.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import and_

from ._record import Record, setfield
from .binoid import (
    BinoidPresentation,
    DifferenceGroup,
    difference_group,
    radical_complex,
)
from .divisors import _dot, cone_facets
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
    _divide,
    _reduce_complex,
    _smith,
    _sparse_complex,
    cohomology_of_complex,
)
from .simplicial import SimplicialComplex, _bits
from .spectrum import (
    PrimeIdeal,
    SpecPoset,
    _interior,
    _mask,
    compute_spec,
    minimal_cover,
    prime_label,
    punctured_spectrum,
    spectrum_of_complex,
)


class CechComplex(Record):
    """Cochain complex of free groups with a label per coordinate.

    Labels in degree j are pairs (face or cover subset, coordinate); the
    differentials carry the alternating-sign restriction maps.  They are
    given as IntMatrix or as sparse rows {row: {column: nonzero entry}},
    kept as sparse rows, and checked once, here, to compose to zero; a
    nonzero composition is reported with the degree and label of its row.
    """

    _fields = ("labels_by_degree", "_rows")

    def __init__(self, labels_by_degree, differentials):
        labels = tuple(tuple(degree) for degree in labels_by_degree)
        rows = _sparse_complex([len(degree) for degree in labels], list(differentials), labels)
        setfield(self, "labels_by_degree", labels)
        setfield(self, "_rows", tuple(rows))

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(degree) for degree in self.labels_by_degree)

    @property
    def differentials(self) -> tuple[IntMatrix, ...]:
        """The differentials as dense matrices, built on each call."""
        ranks = self.ranks
        return tuple(_dense(d, ranks[j + 1], ranks[j]) for j, d in enumerate(self._rows))

    def cohomology(self) -> list[FinAbGroup]:
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


def _cech_complex(simplices, coordinates, restriction=None) -> CechComplex:
    """The Čech complex of groups Z^coordinates(J) over an index complex.

    simplices[k] lists the k-simplices J (tuples); coordinates(J) labels
    the basis of the group at J; restriction(sub, K) yields the (row,
    column, entry) triples of the nonzero entries of the map from the
    group at a facet sub of K into the group at K.  restriction=None means
    that each coordinate of sub maps to the same coordinate of K, as on
    the coordinate cover and the minimal cover of an open subset; every
    coordinate of K then gets its row from one position map per K.  The
    differential sums (-1)^l times the map from the facet dropping K[l];
    as these facets differ, their blocks never overlap.
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
            subs = [(K[:l] + K[l + 1 :], (-1) ** l) for l in range(len(K))]
            if restriction is None:
                target = {c: {} for c in coordinates(K)}
                for sub, sign in subs:
                    for b, c in enumerate(coordinates(sub), offsets[sub]):
                        target[c][b] = sign
                rows.update((a, row) for a, row in enumerate(target.values(), offsets[K]) if row)
                continue
            for sub, sign in subs:
                for a, b, x in restriction(sub, K):
                    rows.setdefault(offsets[K] + a, {})[offsets[sub] + b] = sign * x
        diffs.append(rows)
    return CechComplex(tuple(labels), tuple(diffs))


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
    return _cech_complex(simplices, tuple)


def local_picard_formula(delta: SimplicialComplex) -> list[FinAbGroup]:
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


def local_picard_cech(delta: SimplicialComplex) -> list[FinAbGroup]:
    """Same groups as local_picard_formula, by running the Čech complex.

    >>> delta = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    >>> [str(g) for g in local_picard_cech(delta)]
    ['0', 'Z', '0']
    """
    return picard_complex_simplicial(delta).cohomology()


def pic_open_subset(delta: SimplicialComplex, opens: set[PrimeIdeal]) -> list[FinAbGroup]:
    """Unit-sheaf Čech cohomology of an open subset of a simplicial spectrum.

    The open set is given by its primes, as in `spectrum_of_complex(delta)`,
    whose positions index ``delta.vertices``.  The minimal cover consists of
    basic opens D(G_i) for faces G_i; the crosscut complex indexes the
    intersections, and the degree-k group is one Z^(union of faces) per
    crosscut k-face.  Degree 1 is Pic of the open set.
    """
    return _pic_open_subset(spectrum_of_complex(delta), delta, opens)


def _pic_open_subset(
    S: SpecPoset, delta: SimplicialComplex, opens: set[PrimeIdeal]
) -> list[FinAbGroup]:
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
    return _cech_complex(simplices, unions.__getitem__).cohomology()


def stanley_reisner_cohomology(
    delta: SimplicialComplex, symbol: str = "K*"
) -> list[tuple[GroupExpr, FinAbGroup]]:
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


def _largest_avoiding(S: SpecPoset, face: int) -> int:
    """p_F, the union of the primes disjoint from the face F (bitmasks): the
    largest prime inside F's complement, as primes are closed under union."""
    prime = _interior(~face & ((1 << len(S.generator_names)) - 1), *S._relations)
    if prime is None:
        raise DegenerateLocalization(
            "no prime avoids the face %s: the localization is zero" % (list(_bits(face)),)
        )
    return prime


def _unit_lattice(gamma: DifferenceGroup, prime: int):
    """(B, U, d) as lists of rows, for the images A of the generators outside
    the prime: U*A*V = S, d_1..d_r the nonzero diagonal and B = A*V[:, :r].
    A*V = U^-1*S, so the columns of B span those of A and U*B = S[:, :r]."""
    outside = [i for i in range(gamma.images.cols) if not prime >> i & 1]
    A = tuple(tuple(row[i] for i in outside) for row in gamma.images.entries)
    U, S, V = _smith(IntMatrix(len(A), len(outside), A))
    d = [S[i][i] for i in range(min(len(A), len(outside))) if S[i][i]]
    cols = list(zip(*V))[: len(d)]
    return [[_dot(row, col) for col in cols] for row in A], U, d


def _check_cancellative(S: SpecPoset, gamma: DifferenceGroup) -> None:
    """Every prime's complement must be the generators on one face of the cone.

    The face is cut out by the facet normals that vanish on the complement;
    a prime failing this shows the presentation is not cancellative, and
    then the difference group does not see the units of the localizations.
    """
    images = gamma.all_images()
    zero_sets = [
        _mask(i for i, image in enumerate(images) if not _dot(normal, image))
        for normal in cone_facets(gamma)
    ]
    everything = (1 << len(images)) - 1
    for p, mask in zip(S.primes, S._generator_masks()):
        outside = everything & ~mask
        if reduce(and_, (z for z in zero_sets if not outside & ~z), everything) != outside:
            raise NotCancellative(
                "not cancellative: the generators outside the prime %s "
                "are not the generators on a face of the cone" % prime_label(S, p)
            )


class LocalPicardResult(Record):
    """Čech output on the minimal cover: groups, complex, and cover supports."""

    _fields = ("groups", "cech", "cover")

    def __init__(
        self, groups: tuple[FinAbGroup, ...], cech: CechComplex, cover: tuple[tuple[int, ...], ...]
    ):
        setfield(self, "groups", groups)
        setfield(self, "cech", cech)
        setfield(self, "cover", cover)

    def to_json(self) -> dict:
        return {
            "groups": [g.to_json() for g in self.groups],
            "cover": [list(sup) for sup in self.cover],
            "complex": self.cech.to_json(),
        }


def local_picard_general(M: BinoidPresentation) -> LocalPicardResult:
    """Unit-sheaf Čech cohomology on the minimal cover of the punctured spectrum.

    Every intersection of basic opens of an integral binoid is nonempty,
    so the index complex is a full simplex.  The units over J depend only
    on p_J, the largest prime inside the complement of J's face (one pass
    of `spectrum._interior`): each distinct p_J gets one Smith form
    U*A*V = S of the images A outside it, and the basis B = A*V[:, :r].
    J in K gives p_K in p_J, so U_K*B_K = S_r turns the restriction into
    S_r^-1*U_K*B_J, the identity when p_J = p_K; each block is solved once
    per distinct pair (p_J, p_K).  Degree 1 is the local Picard group.
    """
    gamma = difference_group(M)
    S = compute_spec(M)
    _check_cancellative(S, gamma)
    cover = minimal_cover(S, punctured_spectrum(S))

    k = len(cover)
    simplices = [list(combinations(range(k), size)) for size in range(1, k + 1)]
    largest = {
        J: _largest_avoiding(S, _mask({i for j in J for i in cover[j]}))
        for k_simplices in simplices
        for J in k_simplices
    }
    lattices = {p: _unit_lattice(gamma, p) for p in set(largest.values())}

    @cache
    def block(p_sub, p_K):
        _, U, d = lattices[p_K]
        if p_sub == p_K:
            return [(a, a, 1) for a in range(len(d))]
        X = _divide(U, d, lattices[p_sub][0])
        return [(a, b, x) for a, row in enumerate(X) for b, x in enumerate(row) if x]

    coordinates = lambda J: range(len(lattices[largest[J]][2]))
    cech = _cech_complex(simplices, coordinates, lambda sub, K: block(largest[sub], largest[K]))
    return LocalPicardResult(tuple(cech.cohomology()), cech, tuple(cover))


# ---------------------------------------------------------------------------
# monomial algebras


class MonomialReport(Record):
    """Reduced-part cohomology of a monomial algebra, radical or not."""

    _fields = (
        "presentation", "complex", "is_radical", "degrees", "nonvanishing_h1", "unipotent_part"
    )

    def __init__(
        self,
        presentation: BinoidPresentation,
        complex: SimplicialComplex,
        is_radical: bool,
        degrees: tuple[tuple[GroupExpr, FinAbGroup], ...],
        nonvanishing_h1: bool,
        unipotent_part: str = "NOT COMPUTED",
    ):
        setfield(self, "presentation", presentation)
        setfield(self, "complex", complex)
        setfield(self, "is_radical", is_radical)
        setfield(self, "degrees", degrees)
        setfield(self, "nonvanishing_h1", nonvanishing_h1)
        setfield(self, "unipotent_part", unipotent_part)

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
