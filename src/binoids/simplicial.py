"""Abstract simplicial complexes.

Faces are tuples of vertex labels sorted by their position in the
complex's vertex order.  The void complex (no faces at all) and the
empty complex {∅} are distinct values: the latter has the empty face,
the former nothing.

Every face question asks one test of the facets.  Each vertex keeps the
bitmask of the facets containing it; a vertex set is a face exactly when
the AND of its vertices' masks is nonzero, and that AND is the set of
facets above it.  Faces grow from this test one later vertex at a time,
links keep the facets above a face, and `make` keeps a face only when no
facet kept before it lies above it.  Crosscut complexes and the nerves of
covers are both the nerve of a family of sets (`nerve_of_sets`): its
facets are read off the points, each giving the indices of the sets that
hold it.

Cohomology is read off the cochains outside the closed star of one vertex
w: st w is a cone, so the pair's long exact sequence gives
H~^j(Δ) ≅ H^j(Δ, st w) over Z (a coreduction in the sense of Mrozek and
Batko, 2009, and Kaczynski, Mrozek and Ślusarek, 1998).  One builder,
`_cochain_data`, lays out every simplicial cochain complex on labelled
cells (F, v) of the cached faces: this one with a single label, and the
link formula's relative complexes with one block per vertex v.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record, setfield
from .errors import NotAFace, UnknownVertex, VoidComplex
from .exactalg import (
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    TRIVIAL_GROUP,
    _dense,
    _reduce_complex,
    _sparse_complex,
    coefficient_cohomology,
)


_SIGN = (1, -1)  # (-1)^l is _SIGN[l & 1]


def _bits(mask: int):
    """The positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimplicialComplex(Record):
    """Vertex order plus pairwise incomparable facets.

    The facets through each vertex and the faces are cached on first use.

    >>> c = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    >>> c.faces(1)
    [(1, 2), (1, 3), (2, 3), (3, 4)]
    >>> c.link((3,)).facets
    ((1, 2), (4,))
    """

    _fields = ("vertices", "facets")
    _incidence = _faces = None

    def __init__(self, vertices: tuple, facets: tuple):
        setfield(self, "vertices", vertices)
        setfield(self, "facets", facets)

    @classmethod
    def make(cls, vertices: Sequence, faces: Iterable[Sequence]) -> "SimplicialComplex":
        """Check and normalize: refuse two vertices that are equal or print
        the same, sort faces by vertex position, keep the maximal ones, and
        turn uncovered vertices into singleton facets."""
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        shown = {}
        for v in vertices:
            if shown.setdefault(str(v), v) != v:
                raise ValueError("two vertices print as %s" % v)
        position = {v: i for i, v in enumerate(vertices)}
        normalized = set()
        for face in faces:
            face = tuple(face)
            if len(set(face)) != len(face):
                raise ValueError("face with repeated vertex: %r" % (face,))
            for v in face:
                if v not in position:
                    raise UnknownVertex("vertex %r not declared" % (v,))
            normalized.add(tuple(sorted(face, key=position.__getitem__)))
        covered = {v for face in normalized for v in face}
        for v in vertices:
            if v not in covered:
                normalized.add((v,))
        return _keep_maximal(vertices, normalized)

    @classmethod
    def from_facets(cls, facets: Iterable[Sequence]) -> "SimplicialComplex":
        facets = [tuple(f) for f in facets]
        vertices = sorted({v for f in facets for v in f})
        return cls.make(vertices, facets)

    @classmethod
    def void(cls) -> "SimplicialComplex":
        return cls((), ())

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls((), ((),))

    # -- basic structure ----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty(self) -> bool:
        return self.facets == ((),)

    @property
    def dimension(self) -> int:
        """Largest face cardinality minus one; -1 for {∅}, -2 for void."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    def _facets_through(self, v) -> int:
        """The bitmask of the facets containing vertex v."""
        if self._incidence is None:
            incidence = dict.fromkeys(self.vertices, 0)
            for k, f in enumerate(self.facets):
                for u in f:
                    incidence[u] |= 1 << k
            object.__setattr__(self, "_incidence", incidence)
        try:
            return self._incidence[v]
        except KeyError:
            raise UnknownVertex("vertex %r not in complex" % (v,))

    def _above(self, face: tuple) -> int:
        """The bitmask of the facets containing `face`: nonzero exactly when
        `face` is a face, and 0 when it repeats a vertex."""
        above = (1 << len(self.facets)) - 1
        for v in face:
            above &= self._facets_through(v)
        return above if len(set(face)) == len(face) else 0

    def _faces_by_dim(self) -> dict:
        """{d: {face: _above(face)}} with each dimension in lexicographic order.

        Each dimension grows from the one before, each face by one later
        vertex at a time, trying only the vertices that share a facet with
        its last one, so the work follows the faces even when most vertex
        pairs are not edges.
        """
        if self._faces is None:
            vertices = self.vertices
            through = [self._facets_through(v) for v in vertices]
            position = {v: i for i, v in enumerate(vertices)}
            later = [set() for _ in vertices]
            for f in self.facets:
                spots = [position[v] for v in f]
                for i in spots:
                    later[i].update(j for j in spots if j > i)
            # the empty face, at position -1, may grow by any vertex
            later = [sorted(s) for s in later] + [range(len(vertices))]
            by_dim = {}
            layer = [((), -1, (1 << len(self.facets)) - 1)] if self.facets else []
            while layer:  # (face, position of its last vertex, facets above it)
                by_dim[len(layer[0][0]) - 1] = {face: above for face, _, above in layer}
                layer = [
                    (face + (vertices[i],), i, common)
                    for face, last, above in layer
                    for i in later[last]
                    if (common := above & through[i])
                ]
            object.__setattr__(self, "_faces", by_dim)
        return self._faces

    def faces(self, d: int) -> list[tuple]:
        """All faces of dimension d, lexicographically sorted."""
        return list(self._faces_by_dim().get(d, ()))

    def all_faces(self) -> list[tuple]:
        return [f for faces in self._faces_by_dim().values() for f in faces]

    def has_face(self, face: Sequence) -> bool:
        return self._above(tuple(face)) != 0

    # -- derived complexes --------------------------------------------------

    def link(self, face: Sequence) -> "SimplicialComplex":
        """Faces G disjoint from `face` with face ∪ G in the complex.

        Its facets are the facets above `face` with `face` removed, which
        stay sorted and pairwise incomparable; the link grows its own faces.
        """
        face = tuple(face)
        above = self._above(face)
        if not above:
            raise NotAFace("%r is not a face" % (face,))
        if not face:
            return self
        facets = tuple(tuple(v for v in self.facets[k] if v not in face) for k in _bits(above))
        spanned = {v for g in facets for v in g}
        return SimplicialComplex(tuple(v for v in self.vertices if v in spanned), facets)

    def restriction(self, subset: Iterable) -> "SimplicialComplex":
        """The faces contained in the given vertex subset, spanned by the
        facets' intersections with it."""
        subset = list(subset)
        for v in subset:
            self._facets_through(v)
        sset = set(subset)
        ordered = [v for v in self.vertices if v in sset]
        return SimplicialComplex.make(ordered, [[v for v in f if v in sset] for f in self.facets])

    def crosscut(self, listed_faces: Sequence[Sequence]) -> "SimplicialComplex":
        """Complex on 1-based indices of the list; an index set is a face
        exactly when the union of its faces is a face here.

        That is the nerve of the sets of facets above the listed faces, so
        each facet here gives one candidate: the listed faces it contains.
        """
        listed = [tuple(f) for f in listed_faces]
        above = [self._above(f) for f in listed]
        for f, common in zip(listed, above):
            if not common:
                raise NotAFace("%r is not a face" % (f,))
        return nerve_of_sets(above, len(self.facets))

    # -- cohomology ----------------------------------------------------------

    def _cochain_data(self, start: int, labels):
        """Ranks and differentials, as sparse rows {row: {column: entry}}, on
        labelled cells; empty rows are dropped.

        Degree d holds a cell (F, v) for each face F of dimension d, from
        d = start, and each label v in labels(F, _above(F)), in face order.
        Target (t, v) meets source (t minus t[l], v) with sign (-1)^l, so
        the cells of one label span a block of their own.
        """
        if self.is_void:
            raise VoidComplex("the void complex has no cochain complex")
        by_dim = self._faces_by_dim()
        ranks, diffs, index = [], [], {}
        for d in range(start, self.dimension + 1):
            here, rows, rank = {}, {}, 0
            for t, above in by_dim.get(d, {}).items():
                cells = labels(t, above)
                if not cells:
                    continue
                here[t] = columns = {}
                for v in cells:
                    columns[v] = rank
                    rank += 1
                subs = [(index.get(t[:l] + t[l + 1 :]), _SIGN[l & 1]) for l in range(len(t))]
                for v, r in columns.items():
                    row = {s[v]: sign for s, sign in subs if s and v in s}
                    if row:
                        rows[r] = row
            if d > start:
                diffs.append(rows)
            ranks.append(rank)
            index = here
        return ranks, diffs

    def _cochain_cohomology(self, start: int, labels) -> list[FinAbGroup]:
        """The cohomology of `_cochain_data(start, labels)`, checked once to
        compose to zero; a nonzero composition names its degree and cell."""
        ranks, diffs = self._cochain_data(start, labels)

        def name(k, r):  # the r-th cell of degree start + k, walked to only on failure
            for face, above in self._faces_by_dim()[start + k].items():
                cells = labels(face, above)
                if r < len(cells):
                    return start + k, (face, cells[r])
                r -= len(cells)

        return _reduce_complex(ranks, _sparse_complex(ranks, diffs, name))

    def cochain_complex(self, reduced: bool = False) -> list[IntMatrix]:
        """Differentials of the (reduced) integer cochain complex.

        Faces are ordered lexicographically; the coefficient of a vertex
        omitted at position l is (-1)^l.
        """
        ranks, diffs = self._cochain_data(-1 if reduced else 0, lambda face, above: (None,))
        return [_dense(d, ranks[j + 1], ranks[j]) for j, d in enumerate(diffs)]

    def cohomology(self, reduced: bool = False) -> list[FinAbGroup]:
        """H^j for j = 0..dim (reduced: from j = -1).

        Read off C*(Δ, st w), w the vertex in the most facets (first on
        ties): st w is a cone, so H~^j(Δ) ≅ H^j(Δ, st w) over Z, torsion
        included; unreduced, H^0 gains a Z.  Void and {∅} keep the whole
        complex.  A face lies in st w when a facet above it holds w.
        """
        w = max(map(self._facets_through, self.vertices), key=int.bit_count, default=0)
        outside = lambda face, above: () if above & w else (None,)
        groups = self._cochain_cohomology(-1 if reduced else 0, outside)
        if w and not reduced:
            groups[0] = FinAbGroup(groups[0].free_rank + 1)
        return groups

    def cohomology_with_coefficients(
        self, symbol: str, reduced: bool = False
    ) -> list[GroupExpr]:
        """H^j with coefficients in an abstract group named `symbol`."""
        groups = self.cohomology(reduced)
        out = []
        for j, here in enumerate(groups):
            following = groups[j + 1] if j + 1 < len(groups) else TRIVIAL_GROUP
            out.append(coefficient_cohomology(here, following, symbol))
        return out


def nerve_of_sets(sets: Sequence[int], points: int) -> SimplicialComplex:
    """The nerve of a family of sets, on 1-based indices of the family.

    ``sets[j-1]`` is the bitmask of the points of range(points) in set j.
    An index set is a face when its sets share a point, so every face lies
    in {j : p in set j} for some point p, and these candidates, one per
    point, span the nerve.  Indices of empty sets are not vertices.

    >>> nerve_of_sets([0b011, 0b110, 0b100, 0], 3).facets
    ((1, 2), (2, 3))
    """
    candidates = [[] for _ in range(points)]
    for j, s in enumerate(sets, 1):
        for p in _bits(s):
            candidates[p].append(j)
    vertices = tuple(j for j, s in enumerate(sets, 1) if s)
    return _keep_maximal(vertices, [tuple(c) for c in candidates if c])


def _keep_maximal(vertices: tuple, faces: Iterable[tuple]) -> SimplicialComplex:
    """The complex whose facets are the maximal ones among faces sorted by
    vertex position and covering the vertices.

    Faces are visited largest first.  Each vertex keeps the bitmask of the
    facets kept so far that contain it, and a face is kept exactly when
    the AND of its vertices' masks is 0: no kept facet lies above it.
    """
    position = {v: i for i, v in enumerate(vertices)}
    kept, through = [], dict.fromkeys(vertices, 0)
    for f in sorted(faces, key=len, reverse=True):
        above = (1 << len(kept)) - 1
        for v in f:
            above &= through[v]
        if not above:
            for v in f:
                through[v] |= 1 << len(kept)
            kept.append(f)
    maximal = sorted(kept, key=lambda f: tuple(position[v] for v in f))
    return SimplicialComplex(vertices, tuple(maximal))
