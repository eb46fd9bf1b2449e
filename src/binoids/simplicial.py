"""Abstract simplicial complexes.

Faces are tuples of vertex labels sorted by their position in the
complex's vertex order.  The void complex (no faces at all) and the
empty complex {∅} are distinct values: the latter has the empty face,
the former nothing.

Cohomology is read off the cochains outside the closed star of one vertex
w: st w is a cone, so the pair's long exact sequence gives
H~^j(Δ) ≅ H^j(Δ, st w) over Z (a coreduction in the sense of Mrozek and
Batko, 2009, and Kaczynski, Mrozek and Ślusarek, 1998).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import NotAFace, UnknownVertex, VoidComplex
from .exactalg import (
    FinAbGroup,
    GroupExpr,
    IntMatrix,
    TRIVIAL_GROUP,
    _dense,
    coefficient_cohomology,
    cohomology_of_complex,
)

Face = Tuple


def grow_subsets(n: int, extend, start=0) -> list:
    """Every subset of range(n) that a subset-closed test admits, with its state.

    Subsets are sorted tuples grown from the empty one, which is always
    kept with state ``start``, by one element larger than their last at a
    time: ``extend(state, i)`` returns the state of the subset plus i, or
    None when that subset fails the test.  As the test is closed under
    subsets, every admitted subset is reached through admitted ones, and
    the work is about n calls of ``extend`` per admitted subset.

    >>> sorted(s for s, _ in grow_subsets(3, lambda size, i: size + 1 if size < 2 else None))
    [(), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    """
    found = [((), start)]
    for subset, state in found:  # grows while it is read
        for i in range(subset[-1] + 1 if subset else 0, n):
            following = extend(state, i)
            if following is not None:
                found.append((subset + (i,), following))
    return found


def subsets_avoiding(n: int, supports: Sequence[int]) -> list:
    """The subsets of range(n) containing no support, each with its bitmask.

    Supports are bitmasks.  The subsets are the faces of the complex whose
    non-faces are the supports, found in about n times their number of steps.

    >>> sorted(face for face, _ in subsets_avoiding(3, [0b011]))
    [(), (0,), (0, 2), (1,), (1, 2), (2,)]
    """
    if 0 in supports:
        return []
    by_top = {}
    for s in supports:
        by_top.setdefault(s.bit_length() - 1, []).append(s)

    def extend(face, i):
        face |= 1 << i
        if any(not s & ~face for s in by_top.get(i, ())):
            return None
        return face

    return grow_subsets(n, extend)


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex order plus pairwise incomparable facets.

    >>> c = SimplicialComplex.from_facets([(1, 2, 3), (3, 4)])
    >>> c.faces(1)
    [(1, 2), (1, 3), (2, 3), (3, 4)]
    >>> c.link((3,)).facets
    ((1, 2), (4,))
    """

    vertices: tuple
    facets: tuple
    _closure: dict = field(default=None, init=False, repr=False, compare=False)
    _positions: dict = field(default=None, init=False, repr=False, compare=False)
    _face_masks: frozenset = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(cls, vertices: Sequence, faces: Iterable[Sequence]) -> "SimplicialComplex":
        """Normalize: sort faces by vertex position, keep the maximal ones,
        and turn uncovered vertices into singleton facets.

        Faces are visited largest first, each compared only with the
        maximal faces kept so far."""
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
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
        kept, kept_masks = [], []
        for f in sorted(normalized, key=len, reverse=True):
            mask = sum(1 << position[v] for v in f)
            if all(mask & ~k for k in kept_masks):
                kept.append(f)
                kept_masks.append(mask)
        maximal = sorted(kept, key=lambda f: tuple(position[v] for v in f))
        return cls(vertices, tuple(maximal))

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

    def _position(self, v):
        if self._positions is None:
            positions = {u: i for i, u in enumerate(self.vertices)}
            object.__setattr__(self, "_positions", positions)
        try:
            return self._positions[v]
        except KeyError:
            raise UnknownVertex("vertex %r not in complex" % (v,))

    def _mask(self, face) -> int:
        return sum(1 << self._position(v) for v in face)

    def _faces_as_masks(self) -> frozenset:
        if self._face_masks is None:
            masks = frozenset(self._mask(f) for f in self.all_faces())
            object.__setattr__(self, "_face_masks", masks)
        return self._face_masks

    def _face_key(self, face):
        return tuple(self._position(v) for v in face)

    def _faces_by_dim(self) -> dict:
        if self._closure is None:
            closure = set(self.facets)
            stack = list(self.facets)
            while stack:
                face = stack.pop()
                for i in range(len(face)):
                    sub = face[:i] + face[i + 1 :]
                    if sub not in closure:
                        closure.add(sub)
                        stack.append(sub)
            by_dim = {}
            for face in closure:
                by_dim.setdefault(len(face) - 1, []).append(face)
            for faces in by_dim.values():
                faces.sort(key=self._face_key)
            object.__setattr__(self, "_closure", by_dim)
        return self._closure

    def faces(self, d: int) -> List[Face]:
        """All faces of dimension d, lexicographically sorted."""
        return list(self._faces_by_dim().get(d, []))

    def all_faces(self) -> List[Face]:
        by_dim = self._faces_by_dim()
        out = []
        for d in sorted(by_dim):
            out.extend(by_dim[d])
        return out

    def has_face(self, face: Sequence) -> bool:
        face = tuple(face)
        mask = self._mask(face)
        return bin(mask).count("1") == len(face) and mask in self._faces_as_masks()

    # -- derived complexes --------------------------------------------------

    def link(self, face: Sequence) -> "SimplicialComplex":
        """Faces G disjoint from `face` with face ∪ G in the complex.

        Read off this complex's facets and cached faces that contain `face`,
        which stay sorted when `face` is removed from them.
        """
        face = tuple(face)
        if not self.has_face(face):
            raise NotAFace("%r is not a face" % (face,))
        if not face:
            return self
        fset = set(face)

        def strip(faces):
            return [tuple(v for v in g if v not in fset) for g in faces if fset.issubset(g)]

        closure = {d - len(face): strip(faces) for d, faces in self._faces_by_dim().items()}
        vertices = tuple(v for (v,) in closure.get(0, ()))
        linked = SimplicialComplex(vertices, tuple(strip(self.facets)))
        object.__setattr__(linked, "_closure", closure)
        return linked

    def restriction(self, subset: Iterable) -> "SimplicialComplex":
        """The faces contained in the given vertex subset."""
        subset = list(subset)
        for v in subset:
            self._position(v)
        sset = set(subset)
        kept = [f for f in self.all_faces() if set(f) <= sset]
        ordered = [v for v in self.vertices if v in sset]
        return SimplicialComplex.make(ordered, kept)

    def crosscut(self, listed_faces: Sequence[Sequence]) -> "SimplicialComplex":
        """Complex on 1-based indices of the list; an index set is a face
        exactly when the union of its faces is a face here.

        Index sets are grown one later index at a time and kept only while
        their union is still a face, so the work follows the size of the
        result, not the 2^k subsets of the list.
        """
        listed = [tuple(sorted(f, key=self._position)) for f in listed_faces]
        for f in listed:
            if not self.has_face(f):
                raise NotAFace("%r is not a face" % (f,))
        if self.is_void:
            return SimplicialComplex.void()
        masks = [self._mask(f) for f in listed]
        faces = self._faces_as_masks()

        def extend(union, i):
            union |= masks[i]
            return union if union in faces else None

        grown = grow_subsets(len(listed), extend)
        faces = [tuple(i + 1 for i in subset) for subset, _ in grown if subset]
        return SimplicialComplex.make(range(1, len(listed) + 1), faces)

    # -- cohomology ----------------------------------------------------------

    def _cochain_data(self, reduced: bool, omitted=frozenset()):
        """Ranks and differentials, as sparse rows {row: {column: entry}},
        on the faces outside `omitted`, a subcomplex; empty rows are dropped."""
        if self.is_void:
            raise VoidComplex("the void complex has no cochain complex")
        start = -1 if reduced else 0
        by_dim = self._faces_by_dim()
        faces = [
            [f for f in by_dim.get(d, []) if f not in omitted]
            for d in range(start, self.dimension + 1)
        ]
        diffs = []
        for sources, targets in zip(faces, faces[1:]):
            index = {f: i for i, f in enumerate(sources)}
            boundaries = ((index.get(t[:l] + t[l + 1 :]) for l in range(len(t))) for t in targets)
            rows = ({i: (-1) ** l for l, i in enumerate(b) if i is not None} for b in boundaries)
            diffs.append({t: row for t, row in enumerate(rows) if row})
        return [len(f) for f in faces], diffs

    def cochain_complex(self, reduced: bool = False) -> List[IntMatrix]:
        """Differentials of the (reduced) integer cochain complex.

        Faces are ordered lexicographically; the coefficient of a vertex
        omitted at position l is (-1)^l.
        """
        ranks, diffs = self._cochain_data(reduced)
        return [_dense(d, ranks[j + 1], ranks[j]) for j, d in enumerate(diffs)]

    def cohomology(self, reduced: bool = False) -> List[FinAbGroup]:
        """H^j for j = 0..dim (reduced: from j = -1).

        Read off C*(Δ, st w), w the vertex in the most facets (first on
        ties): st w is a cone, so H~^j(Δ) ≅ H^j(Δ, st w) over Z, torsion
        included; unreduced, H^0 gains a Z.  Void and {∅} keep the whole complex.
        """
        star = set()
        if self.vertices:
            in_facets = Counter(v for f in self.facets for v in f)
            w = max(self.vertices, key=in_facets.__getitem__)
            star = {f for faces in self._faces_by_dim().values() for f in faces if w in f}
            star |= {tuple(v for v in f if v != w) for f in star}
        groups = cohomology_of_complex(*self._cochain_data(reduced, star))
        if star and not reduced:
            groups[0] = FinAbGroup(groups[0].free_rank + 1)
        return groups

    def cohomology_with_coefficients(
        self, symbol: str, reduced: bool = False
    ) -> List[GroupExpr]:
        """H^j with coefficients in an abstract group named `symbol`."""
        groups = self.cohomology(reduced)
        out = []
        for j, here in enumerate(groups):
            following = groups[j + 1] if j + 1 < len(groups) else TRIVIAL_GROUP
            out.append(coefficient_cohomology(here, following, symbol))
        return out
