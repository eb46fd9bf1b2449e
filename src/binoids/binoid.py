"""Finitely presented commutative binoids.

A presentation is a list of generator names plus relations, each either
element = element or element = ∞, with both sides stored as exponent
vectors over the generators.  Syntax lives in the CLI module; everything
here works on the vectors.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import (
    NotIntegral,
    NotMonomialPresentation,
    NotSimplicialPresentation,
    Torsion,
    VoidComplex,
)
from .exactalg import IntMatrix, _smith
from .simplicial import SimplicialComplex, _bits


class Relation(Record):
    """lhs = rhs with rhs None meaning ∞; both sides are exponent vectors."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: tuple, rhs: tuple | None):
        lhs = tuple(lhs)
        if rhs is not None:
            rhs = tuple(rhs)
            if len(rhs) != len(lhs):
                raise ValueError("relation sides over different generators")
        for x in lhs + (rhs or ()):
            if not isinstance(x, int) or x < 0:
                raise ValueError("exponents must be nonnegative integers, not %r" % (x,))
        if rhs == lhs:
            raise ValueError("relation with identical sides")
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)

    @property
    def is_infinity(self) -> bool:
        return self.rhs is None

    def text(self, names) -> str:
        """The relation in the input syntax, over these generator names.

        >>> Relation((1, 1, 0), (0, 0, 2)).text(("x", "y", "z"))
        'x + y = 2 z'
        """

        def side(vector):
            terms = [
                "%s" % name if x == 1 else "%d %s" % (x, name)
                for name, x in zip(names, vector)
                if x
            ]
            return " + ".join(terms) or "0"

        return "%s = %s" % (side(self.lhs), "inf" if self.rhs is None else side(self.rhs))

    def lhs_support(self) -> frozenset:
        return frozenset(i for i, x in enumerate(self.lhs) if x)

    def rhs_support(self) -> frozenset:
        return frozenset(i for i, x in enumerate(self.rhs) if x)


def _support(vector) -> int:
    """The bitmask of the positions where an exponent vector is nonzero."""
    return sum(1 << i for i, x in enumerate(vector) if x)


class BinoidPresentation(Record):
    """Generator names in order, plus relations as exponent vectors.

    >>> M = BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 0), (0, 0, 2)),))
    >>> difference_group(M).rank
    2
    """

    _fields = ("generator_names", "relations")

    def __init__(self, generator_names: tuple, relations: tuple):
        generator_names, relations = tuple(generator_names), tuple(relations)
        if len(set(generator_names)) != len(generator_names):
            raise ValueError("duplicate generator names")
        n = len(generator_names)
        for rel in relations:
            if len(rel.lhs) != n:
                raise ValueError("relation arity does not match generators")
        setfield(self, "generator_names", generator_names)
        setfield(self, "relations", relations)

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    def is_integral(self) -> bool:
        return not any(rel.is_infinity for rel in self.relations)


class DifferenceGroup(Record):
    """Γ ≅ Z^rank with the chosen images of the generators.

    images has one column per generator; relation_lattice has one column
    per element-relation (lhs - rhs), and its cokernel is free by the
    torsion check in difference_group.
    """

    _fields = ("rank", "images", "relation_lattice")

    def __init__(self, rank: int, images: IntMatrix, relation_lattice: IntMatrix):
        setfield(self, "rank", rank)
        setfield(self, "images", images)
        setfield(self, "relation_lattice", relation_lattice)

    def image_of(self, index: int) -> tuple:
        return self.images.column(index)

    def all_images(self) -> list:
        return [self.images.column(j) for j in range(self.images.cols)]


# ---------------------------------------------------------------------------


def from_simplicial(complex_: SimplicialComplex) -> BinoidPresentation:
    """The binoid (vertices | sum over each minimal non-face = ∞).

    A minimal non-face of size at least two is a nonempty face F plus a
    vertex later than F's last one, all of whose facets are faces; the
    relations are listed by size, then lexicographically.
    """
    if complex_.is_void or not complex_.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    vertices = complex_.vertices
    n = len(vertices)
    position = {v: i for i, v in enumerate(vertices)}
    faces = {}  # bitmask -> positions, by size and then lexicographically
    for f in complex_.all_faces():
        members = tuple(position[v] for v in f)
        faces[sum(1 << i for i in members)] = members
    nonfaces = []  # in the order of the faces they extend, which is the same
    for mask, members in faces.items():
        if not members:
            continue
        for v in range(members[-1] + 1, n):
            candidate = mask | 1 << v
            if candidate not in faces and all(
                (candidate & ~(1 << u)) in faces for u in members
            ):
                nonfaces.append(members + (v,))
    relations = tuple(
        Relation(tuple(1 if i in combo else 0 for i in range(n)), None)
        for combo in nonfaces
    )
    return BinoidPresentation(vertices, relations)


def _complex_from_nonface_supports(names: tuple, supports: list) -> SimplicialComplex:
    """The complex on `names` whose non-faces are the sets holding a support mask.

    Its facets come by Berge dualization: starting from the full vertex
    set, each distinct support splits every facet holding it into the
    facets missing one of its vertices.  The facets not holding it stay
    maximal, so only the split ones are filtered.  An empty support leaves
    no face: the void complex.
    """
    facets = [(1 << len(names)) - 1]
    for s in dict.fromkeys(supports):
        if not s:
            return SimplicialComplex.void()
        kept = [f for f in facets if s & ~f]
        split = {f & ~(1 << i) for f in facets if not s & ~f for i in _bits(s)}
        maximal = lambda g: all(g & ~f for f in kept) and all(g == h or g & ~h for h in split)
        facets = kept + list(filter(maximal, split))
    vertices = [v for i, v in enumerate(names) if any(f >> i & 1 for f in facets)]
    return SimplicialComplex.make(vertices, [[names[i] for i in _bits(f)] for f in facets])


def as_simplicial(M: BinoidPresentation) -> SimplicialComplex:
    """The complex whose non-faces are the relation supports.

    Requires every relation to be squarefree = ∞; inverse of
    from_simplicial up to minimality of the relations.
    """
    supports = []
    for rel in M.relations:
        if not rel.is_infinity:
            raise NotSimplicialPresentation(
                "element relation present: %s" % rel.text(M.generator_names)
            )
        support = _support(rel.lhs)
        if sum(rel.lhs) != support.bit_count():  # some exponent is above 1
            raise NotSimplicialPresentation(
                "relation is not squarefree: %s" % rel.text(M.generator_names)
            )
        supports.append(support)
    return _complex_from_nonface_supports(M.generator_names, supports)


def radical_complex(M: BinoidPresentation) -> SimplicialComplex:
    """The complex of the radical of a monomial presentation."""
    supports = []
    for rel in M.relations:
        if not rel.is_infinity:
            raise NotMonomialPresentation(
                "all relations must send a monomial to infinity, not %s"
                % rel.text(M.generator_names)
            )
        supports.append(_support(rel.lhs))
    return _complex_from_nonface_supports(M.generator_names, supports)


def smash_free(M: BinoidPresentation, k: int) -> BinoidPresentation:
    """M ∧ (N^k)^∞: k fresh free generators, no new relations."""
    if k < 0:
        raise ValueError("count must be nonnegative")
    if k == 0:
        return M
    taken = set(M.generator_names)
    fresh = []
    for i in range(1, k + 1):
        name = "t" if k == 1 else "t%d" % i
        while name in taken:
            name += "_"
        taken.add(name)
        fresh.append(name)
    names = M.generator_names + tuple(fresh)
    pad = (0,) * k
    relations = tuple(
        Relation(rel.lhs + pad, None if rel.rhs is None else rel.rhs + pad)
        for rel in M.relations
    )
    return BinoidPresentation(names, relations)


def difference_group(M: BinoidPresentation) -> DifferenceGroup:
    """Γ = group completion of M minus ∞, with a recorded basis.

    The basis comes from the Smith normal form of the relation lattice,
    so images are reproducible run to run.
    """
    for rel in M.relations:
        if rel.is_infinity:
            raise NotIntegral(
                "∞-relation present; the binoid is not integral: %s"
                % rel.text(M.generator_names)
            )
    n = M.generator_count
    columns = [
        [l - r for l, r in zip(rel.lhs, rel.rhs)] for rel in M.relations
    ]
    lattice = IntMatrix.from_rows(
        [[col[i] for col in columns] for i in range(n)], cols=len(columns)
    )
    U, S, _ = _smith(lattice, v=False)
    diag = tuple(S[i][i] for i in range(min(n, len(columns))))
    if any(d not in (0, 1) for d in diag):
        raise Torsion("difference group has torsion: diagonal %s" % (diag,))
    free_rows = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    images = IntMatrix.from_rows([U[i] for i in free_rows], cols=n)
    return DifferenceGroup(len(free_rows), images, lattice)
