"""Cohomology of the unit sheaf on punctured binoid spectra.

Simplicial binoids get two independent routes: the per-vertex splitting of
the coordinate-cover Čech complex, and the closed formula summing reduced
link cohomology, read off relative cochains on the complex's own faces
(`SimplicialComplex._cochain_data`, not `_cech_complex`).  A cancellative
integral binoid gets cellular cohomology on its spectrum, one cell per
prime.  One constructor, `_cech_complex`, lays out the Čech complexes of
the coordinate cover and of the minimal cover of an open subset, and the
cell complex.  The open subset the command line asks for, the punctured
height ≤ 1 (Weil) locus of a complex, has its minimal cover read off the
faces (`_weil_cover`): the prime of a face F has height max |G| - |F| over
the facets G above F, so the cover is the minimal nonempty faces whose
facets all have at most |F| + 1 vertices, found with no spectrum.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from ._record import Record, setfield
from .binoid import (
    BinoidPresentation,
    DifferenceGroup,
    _drop_free,
    difference_group,
    radical_complex,
)
from .divisors import _cone_facets, _dot
from .errors import NotCancellative, PreconditionError, VoidComplex
from .exactalg import (
    TRIVIAL_GROUP,
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    _dense,
    _dense_factors,
    _divide,
    _reduce_complex,
    _smith,
    _sparse_complex,
)
from .simplicial import _SIGN, SimplicialComplex
from .spectrum import (
    PrimeIdeal,
    SpecPoset,
    _labels,
    _punctured_cover,
    _vertex_positions,
    compute_spec,
    minimal_cover,
    spectrum_of_complex,
)


class CechComplex(Record):
    """Cochain complex of free groups with a label per coordinate.

    Labels in degree j are pairs (J, coordinate), J a face, cover subset or
    cell; the differentials carry the signed restriction maps.  They are
    given as IntMatrix or as sparse rows {row: {column: nonzero entry}},
    kept as sparse rows, and checked once, here, to compose to zero; a
    nonzero composition is reported with the degree and label of its row.
    """

    _fields = ("labels_by_degree", "_rows")

    def __init__(self, labels_by_degree, differentials):
        labels = tuple(tuple(degree) for degree in labels_by_degree)
        ranks = [len(degree) for degree in labels]
        rows = _sparse_complex(ranks, list(differentials), lambda k, r: (k, labels[k][r]))
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


def _simplex_facets(K) -> list:
    """The facets K minus K[l] of a simplex K, each with its sign (-1)^l."""
    return [(K[:l] + K[l + 1 :], _SIGN[l & 1]) for l in range(len(K))]


def _cech_complex(cells, coordinates, restriction=None, facets=_simplex_facets) -> CechComplex:
    """The complex of groups Z^coordinates(J) on a regular cell complex.

    cells[k] lists the labels J (tuples) of the k-cells; facets(K) lists
    the (J, sign) of the facets J of K, by default the simplices K minus
    K[l] with (-1)^l: the Čech complex over an index complex.
    restriction(sub, K) yields the (row, column, entry) triples of the
    nonzero entries of the map from the group at sub into the group at K;
    None maps each coordinate of sub to the same coordinate of K, one
    position map per K, as on the coordinate cover and the minimal cover
    of an open subset.
    """
    labels, offsets = [], {}
    for k_cells in cells:
        degree = []
        for J in k_cells:
            offsets[J] = len(degree)
            degree.extend((J, c) for c in coordinates(J))
        labels.append(tuple(degree))
    diffs = []
    for k in range(1, len(cells)):
        rows = {}
        for K in cells[k]:
            subs = facets(K)
            if restriction is None:
                target = {c: {} for c in coordinates(K)}
                for sub, sign in subs:
                    for b, c in enumerate(coordinates(sub), offsets[sub]):
                        target[c][b] = sign
                a = offsets[K]
                for row in target.values():
                    if row:
                        rows[a] = row
                    a += 1
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
    return delta._cochain_cohomology(0, cells)


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
    return _pic_open_cover(delta, minimal_cover(spectrum_of_complex(delta), opens))


def _weil_cover(delta: SimplicialComplex) -> list[tuple[int, ...]]:
    """The supports of the minimal cover of the punctured height ≤ 1 locus,
    as `minimal_cover` gives them, read off the faces.

    The prime of a face F has height max |G| - |F| over the facets G above
    F, so the locus is the nonempty faces whose facets all have at most
    |F| + 1 vertices, and the cover has one open D(F) per minimal face F of
    it.  A face of the locus with a facet of |F| + 1 vertices above it is
    minimal, since that facet is too large for any smaller face; any other
    face of it is a facet, minimal unless it minus one vertex is in the locus.
    """
    position = _vertex_positions(delta)
    sizes = [len(f) for f in delta.facets]
    # wider[k]: the bitmask of the facets with more than k vertices
    wider = [sum(1 << j for j, s in enumerate(sizes) if s > k) for k in range(max(sizes) + 2)]
    by_dim = delta._faces_by_dim()
    cover = []
    for k, faces in enumerate(list(by_dim.values())[1:], 1):  # k vertices each
        for face, above in faces.items():
            if above & wider[k + 1]:
                continue
            if k > 1 and not above & wider[k]:  # a facet: is a face below it in the locus?
                smaller = by_dim[k - 2]
                if not all(smaller[face[:l] + face[l + 1 :]] & wider[k] for l in range(k)):
                    continue
            cover.append(tuple(map(position.__getitem__, face)))
    cover.sort()
    return cover


def _pic_open_cover(delta: SimplicialComplex, supports: list[tuple[int, ...]]) -> list[FinAbGroup]:
    """`pic_open_subset` of the open set that the basic opens on these
    supports, positions in ``delta.vertices``, minimally cover."""
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


def _unit_lattice(gamma: DifferenceGroup, prime: int):
    """(B, U, d) as lists of rows, for the images A of the generators outside
    the prime: U*A*V = S, d_1..d_r the nonzero diagonal and B = A*V[:, :r].
    A*V = U^-1*S, so the columns of B span those of A and U*B = S[:, :r]."""
    outside = [i for i in range(gamma.images.cols) if not prime >> i & 1]
    A = [[row[i] for i in outside] for row in gamma.images.entries]
    U, S, V = _smith(A, len(outside))
    d = [S[i][i] for i in range(min(len(A), len(outside))) if S[i][i]]
    cols = list(zip(*V))[: len(d)]
    return [[_dot(row, col) for col in cols] for row in A], U, d


def _check_cancellative(S: SpecPoset, gamma: DifferenceGroup) -> None:
    """Every prime must be the union of the minimal nonempty primes inside
    it, and each of those the generators off a facet (`cone_facets`).

    The facets are then all of them, so this says that the generators
    outside each prime are those on one face of the cone, the face the
    facets vanishing on them cut out.  A prime failing this shows the
    presentation is not cancellative, and then the difference group does
    not see the units of the localizations.
    """
    facets = [q for q, normal in _cone_facets(gamma, S).items() if normal]
    for mask in S._primes:
        if reduce(or_, (q for q in facets if not q & ~mask), 0) != mask:
            raise NotCancellative(
                "not cancellative: the generators outside the prime %s "
                "are not the generators on a face of the cone" % _labels(S, (mask,))[0]
            )


def _check_units(M: BinoidPresentation, S: SpecPoset, ranks: dict) -> None:
    """At each punctured prime p ≠ ∅, by its bitmask a key of `ranks`,
    Z^(generators off p) modulo the relations with both sides off p must be
    free of rank ranks[p], that of the lattice L_p the generators off p
    span in Γ.

    That quotient is the unit group of the localization at p: every
    relation is balanced on p, so no derivation between words off p leaves
    them.  It is L_p when M is cancellative; where it is not, the cells
    would carry the wrong groups.  At ∅ the units are Γ by definition.
    A prime holding generators no relation uses is skipped: it keeps the
    relations of the prime without them, which comes earlier, and both its
    quotient and its lattice lose one free Z per such generator.
    """
    n = M.generator_count
    supports = [lhs | rhs for lhs, rhs in S._relations[0]]  # M is integral: all element relations
    covered = reduce(or_, supports, 0)
    for mask in S._primes:
        if not mask or mask & ~covered or mask not in ranks:
            continue
        kept = [rel for used, rel in zip(supports, M.relations) if not used & mask]
        factors = _dense_factors([[a - b for a, b in zip(rel.lhs, rel.rhs)] for rel in kept], n)
        if any(f != 1 for f in factors) or n - mask.bit_count() - len(factors) != ranks[mask]:
            raise NotCancellative(
                "not cancellative: the units at the prime %s are not the lattice "
                "the generators outside it span in the difference group" % _labels(S, (mask,))[0]
            )


class LocalPicardResult(Record):
    """Groups and cell complex of the punctured spectrum, with the cover
    supports that number the cells' vertices."""

    _fields = ("groups", "cech", "cover")

    def __init__(self, groups: tuple, cech: CechComplex, cover: tuple):
        setfield(self, "groups", groups)
        setfield(self, "cech", cech)
        setfield(self, "cover", cover)

    def to_json(self) -> dict:
        return {
            "groups": [g.to_json() for g in self.groups],
            "cover": [list(sup) for sup in self.cover],
            "complex": self.cech.to_json(),
        }


def _cell_complex(S: SpecPoset) -> tuple:
    """The punctured primes of a cancellative binoid as the cells of the
    polytope cutting its cone: the minimal cover, the labels by dimension,
    and per label the prime's bitmask and its facets' (label, sign).

    A cell has dimension rank - 1 - height and its facets are the primes
    just above it; the vertices, just below the maximal ideal, are the
    complements of the cover's opens, and a label lists those on the cell.
    Signs follow the face poset (Björner 1984): an edge gives +1 to its
    vertex of larger label and -1 to the other; a larger cell gives +1 to
    its facet of largest label, and opposite induced signs to two facets
    through a ridge, which fixes the rest.
    """
    covers, heights = S._hasse_diagram()
    masks = S._primes
    top = len(masks) - 1  # the maximal ideal
    above = [[] for _ in range(top)]  # the primes just above, added as they are passed
    labels, signed = [()] * top, [None] * top  # signed: per cell, {facet: sign}
    vertices = _punctured_cover(S)
    for j, (_, v) in enumerate(vertices):
        labels[v] = (j,)
    cells = [[] for _ in range(heights[top])]
    for p in range(top - 1, -1, -1):  # larger primes first: facets before their cells
        up = sorted(above[p], key=labels.__getitem__, reverse=True)
        sign = dict(zip(up, (1, -1) if len(up) == 2 else (1,)))
        order = list(sign)
        for f in order:  # from each signed facet through its ridges
            for r, s in signed[f].items():
                for g in covers[r]:  # the cells that have r as a facet
                    if g not in sign and g in up:  # the other facet of p on r
                        sign[g] = -sign[f] * s * signed[g][r]
                        order.append(g)
        signed[p] = sign
        labels[p] = labels[p] or tuple(sorted({v for f in up for v in labels[f]}))
        cells[heights[top] - 1 - heights[p]].append(labels[p])
        for c in covers[p]:
            above[c].append(p)
    cell = {labels[p]: (masks[p], [(labels[f], s) for f, s in signed[p].items()])
            for p in range(top)}
    return [support for support, _ in vertices], [sorted(k_cells) for k_cells in cells], cell


def _unit_lattices(M: BinoidPresentation) -> tuple:
    """The spectrum of M and `_unit_lattice` per punctured prime, by
    bitmask, once `_check_cancellative` and `_check_units` pass; and the
    rank of the difference group."""
    gamma = difference_group(M)
    S = compute_spec(M)
    _check_cancellative(S, gamma)
    lattices = {prime: _unit_lattice(gamma, prime) for prime in S._primes[:-1]}
    _check_units(M, S, {prime: len(lattice[2]) for prime, lattice in lattices.items()})
    return S, lattices, gamma.rank


def local_picard_general(M: BinoidPresentation) -> LocalPicardResult:
    """Unit-sheaf cohomology of the punctured spectrum, one cell per prime.

    The open star of a cell p of `_cell_complex`, the primes inside p, is
    the basic open on the generators outside p, so this is cellular sheaf
    cohomology (Shepard 1985; Curry 2014).  The group of p is the lattice
    of the images A of those generators, with basis B = A*V[:, :r] from
    U*A*V = S, and the restriction from a facet q is S_r^-1*U*B_q.
    Degree 1 is the local Picard group.  That these are the unit groups
    is checked exactly, by `_check_cancellative` and `_check_units`.
    """
    S, units, _ = _unit_lattices(M)
    cover, cells, cell = _cell_complex(S)
    lattices = {J: units[prime] for J, (prime, _) in cell.items()}

    def block(sub, K):
        X = _divide(*lattices[K][1:], lattices[sub][0])  # U_K, d_K and B_sub
        return [(a, b, x) for a, row in enumerate(X) for b, x in enumerate(row) if x]

    coordinates = lambda J: range(len(lattices[J][2]))
    cech = _cech_complex(cells, coordinates, block, lambda K: cell[K][1])
    return LocalPicardResult(tuple(cech.cohomology()), cech, tuple(cover))


def local_picard_groups(M: BinoidPresentation) -> tuple[FinAbGroup, ...]:
    """The groups of `local_picard_general`, with no cells once a free
    generator, one in no relation, splits off.

    Let M have n ≥ 2 generators, k ≥ 1 of them free, and N be M on the
    others.  Then every group is 0.  Write M = M′ ∧ ⟨t⟩, M′ with a generator,
    and cover X = Spec•M by U = Spec•M′ × {∅, ⟨t⟩} and D(t) = Spec M′.  Each
    fibre of U has the closed point ⟨t⟩, so H^i(U) = H^i(Spec•M′).  D(t) has
    a point whose only neighbourhood is D(t), so O* is acyclic there, with
    H^0 = units(M′) ⊕ Zt = Zt.  On U ∩ D(t) = Spec•M′, O* gains a constant
    Z, flasque as ∅ lies in every nonempty open.  So H^i(U) ⊕ H^i(D(t)) →
    H^i(U ∩ D(t)) is an isomorphism, (a, b) ↦ (a, −b) in degree 0, and
    Mayer–Vietoris gives H^i(X) = 0.

    The checks are decided on N: cone(M) = cone(N) × R≥0^k, Γ_M = Γ_N ⊕ Z^k
    on the free generators, and at a prime q ∪ s, s free, the units are N's
    at q plus Z^(k − |s|).  A refused N runs the cell route, which refuses
    M in its own words (`Torsion` prints one entry per generator).  The
    degrees are those of the cells, rank Γ_M = rank Γ_N + k.
    """
    N, n = _drop_free(M), M.generator_count
    if n > 1 and N.generator_count < n:
        try:
            return (TRIVIAL_GROUP,) * (_unit_lattices(N)[2] + n - N.generator_count)
        except PreconditionError:
            pass
    return local_picard_general(M).groups


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
