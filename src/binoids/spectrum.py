"""Prime spectra of finitely presented binoids as finite posets.

A subset of the generators spans a prime ideal exactly when every element
relation has both or neither side supported on it and every infinity
relation is supported on it.  The spectrum is the resulting union-closed
family, ordered by inclusion.  A spectrum holds each prime once, as the
int bitmask of its generators; the public functions take and give
`PrimeIdeal` tuples, turning them into bitmasks once on entry and building
them from bitmasks only on return.  Balanced sets are closed under union,
so every generator subset holds a largest balanced one, its interior, and
`compute_spec` lists the primes by Close-by-One: each prime is reached
once, as the interior of a larger prime with one generator taken out, in
time polynomial in the number of primes.  For the binoid of a
simplicial complex the primes are the complements of its faces, so
`spectrum_of_complex` reads them off the faces the complex already holds,
with no presentation and no sort: larger faces give smaller primes, and
the complements of equal-size faces in lexicographic order come in
reverse lexicographic order (where two faces first differ, the earlier
one holds the vertex and so the later one's complement does), so each
dimension's faces are read backwards, the largest dimension first.
Without element relations the primes just above p are the p ∪ {g}, g
outside p, one Hasse edge per (face, vertex).  The nerve of a cover takes
its points from the minimal primes alone: a smaller prime avoids every
support a larger one avoids, so the primes above them add no face.  The
minimal cover of the punctured spectrum is the complements of the primes
just below the maximal ideal (`_punctured_cover`).  On a complex both are
read off the faces with no Hasse diagram: the prime of a face F has
height max |G| - |F| over the facets G above F (`_complex_heights`), and
the cover is one open per vertex, whose nerve is the complex itself on
its vertex positions (`_complex_cover_nerve`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress

from ._record import Record, setfield
from .binoid import BinoidPresentation, _support
from .errors import NotInSpec, NotOpen, NotPositive, VoidComplex
from .simplicial import SimplicialComplex, _bits, nerve_of_sets


class PrimeIdeal(tuple):
    """A prime ideal as the public view shows it: the tuple of the sorted
    generator indices it contains, which it equals, hashes and orders as.
    A spectrum holds each prime as a bitmask and builds these on request.

    >>> PrimeIdeal((2, 0)), PrimeIdeal((2, 0)) == (0, 2)
    (PrimeIdeal(generator_subset=(0, 2)), True)
    """

    __slots__ = ()

    def __new__(cls, generator_subset=()):
        return super().__new__(cls, sorted(generator_subset))

    @property
    def generator_subset(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self):
        return "PrimeIdeal(generator_subset=%r)" % (tuple(self),)


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int, items: Sequence):
    """The items at the set bits of a mask, in order.  The binary digits are
    read in C, so a prime with thousands of generators costs no Python step
    per generator."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS))


def _prime(mask: int) -> PrimeIdeal:
    """The PrimeIdeal of the generators on the bits of a mask."""
    return tuple.__new__(PrimeIdeal, _members(mask, range(mask.bit_length())))


class SpecPoset(Record):
    """All prime ideals of a presentation, sorted by size then lexicographically.

    Each prime is held once, as the bitmask of its generators, which is
    compared; `primes` builds the PrimeIdeals shown on every call.  The
    relation supports are kept as `_relation_masks` gives them (none for a
    complex), neither compared nor shown.  The position index, keyed on the
    bitmasks, and the Hasse diagram with the heights are built on first use
    and kept.
    """

    _fields = ("generator_names", "_primes")
    _index = _hasse = None

    def __init__(self, generator_names: tuple, primes: tuple[int, ...], _relations=((), ())):
        setfield(self, "generator_names", generator_names)
        setfield(self, "_primes", primes)
        setfield(self, "_relations", _relations)

    @property
    def primes(self) -> tuple[PrimeIdeal, ...]:
        return tuple(map(_prime, self._primes))

    def __repr__(self):
        return "SpecPoset(generator_names=%r, primes=%r)" % (self.generator_names, self.primes)

    def position_of(self, prime: PrimeIdeal) -> int:
        if not isinstance(prime, PrimeIdeal):
            raise NotInSpec(f"{prime!r} is not a PrimeIdeal")
        if self._index is None:
            object.__setattr__(self, "_index", {m: i for i, m in enumerate(self._primes)})
        try:
            mask = sum(1 << g for g in prime)
        except (TypeError, ValueError):  # not a generator index
            mask = None
        # a repeated generator carries into fewer bits than the prime has entries
        if mask is None or mask.bit_count() != len(prime) or mask not in self._index:
            raise NotInSpec(f"{prime.generator_subset} is not a prime ideal here")
        return self._index[mask]

    def __contains__(self, prime) -> bool:
        try:
            self.position_of(prime)
        except NotInSpec:
            return False
        return True

    def _hasse_diagram(self) -> tuple:
        """Per position, the positions of the primes it covers, and its height.

        Without element relations the primes just above p are the p ∪ {g},
        g outside p; visiting the primes smallest first and handing each to
        the primes above it keeps every cover list sorted and every height
        final before it is read.
        With element relations the primes inside p are found at once, as
        the bits of their positions: those without any generator outside
        p, all before p.  The last of them is just below p, and so is the
        last of those left after taking out every prime inside one found.
        """
        if self._hasse is None:
            masks = self._primes
            full = (1 << len(self.generator_names)) - 1
            if self._relations[0]:
                without = [0] * len(self.generator_names)  # per generator, the primes lacking it
                for i, mask in enumerate(masks):
                    for g in _bits(full & ~mask):
                        without[g] |= 1 << i
                inside, covers, heights = [], [], []
                for i, mask in enumerate(masks):
                    below = (1 << i) - 1
                    for g in _bits(full & ~mask):
                        below &= without[g]
                    inside.append(below)
                    lower = []
                    while below:
                        j = below.bit_length() - 1
                        lower.append(j)
                        below &= ~(inside[j] | 1 << j)
                    covers.append(lower[::-1])
                    heights.append(1 + max(map(heights.__getitem__, lower)) if lower else 0)
            else:
                where = {m: i for i, m in enumerate(masks)}
                covers, heights = [[] for _ in masks], [0] * len(masks)
                for i, mask in enumerate(masks):
                    up, outside = heights[i] + 1, full & ~mask
                    while outside:
                        g = outside & -outside  # the lowest generator left
                        outside ^= g
                        j = where.get(mask | g)
                        if j is not None:
                            covers[j].append(i)
                            if heights[j] < up:
                                heights[j] = up
            object.__setattr__(self, "_hasse", (tuple(map(tuple, covers)), tuple(heights)))
        return self._hasse


def _relation_masks(M: BinoidPresentation):
    """Supports as bitmasks: (lhs, rhs) per element relation, lhs per infinity one."""
    element_masks = []
    infinity_masks = []
    for rel in M.relations:
        lhs = _support(rel.lhs)
        if not lhs:
            raise NotPositive("relation with empty left-hand support")
        if rel.is_infinity:
            infinity_masks.append(lhs)
        else:
            rhs = _support(rel.rhs)
            if not rhs:
                raise NotPositive("relation with empty right-hand support")
            element_masks.append((lhs, rhs))
    return element_masks, infinity_masks


def _interior(mask: int, element_masks) -> int:
    """The largest balanced set inside ``mask``.

    A relation side that ``mask`` meets while missing the other side can
    meet no balanced set inside ``mask``, so it is dropped until every
    relation is balanced; every balanced set inside ``mask`` lies in what
    is left.  It is prime exactly when it meets every infinity relation.
    """
    unbalanced = True
    while unbalanced:
        unbalanced = False
        for lhs, rhs in element_masks:
            if bool(mask & lhs) != bool(mask & rhs):
                mask &= ~(lhs | rhs)
                unbalanced = True
    return mask


def compute_spec(M: BinoidPresentation) -> SpecPoset:
    """Enumerate the prime ideals of a positive presentation by Close-by-One.

    Starting from the set of all generators, each prime P gives, for each
    generator g of P at or after its start, the child Q = `_interior` of
    P minus g.  Q is kept only when no generator it drops lies below g, so
    each prime is reached once (Kuznetsov 1993; Outrata and Vychodil 2012),
    and only while it meets the infinity supports through the generators
    it drops: a Q that misses one holds no prime, so its branch ends.  Each
    prime tries at most n children: the work is polynomial in the primes.
    Among primes of one size, the first generator where two differ is in
    the lexicographically earlier one, so their complements, read as
    numbers with generator 0 as the highest digit, come in ascending order.
    """
    n = M.generator_count
    element_masks, infinity_masks = _relation_masks(M)
    through = [[] for _ in range(n)]  # the infinity supports through each generator
    for f in infinity_masks:
        for v in _bits(f):
            through[v].append(f)
    grown = []
    stack = [((1 << n) - 1, 0)]  # (P, the first generator it may drop)
    while stack:
        mask, start = stack.pop()
        grown.append(mask)
        for g in _bits(mask >> start << start):
            q = _interior(mask ^ 1 << g, element_masks)
            dropped = mask ^ q
            if dropped == 1 << g:  # g alone is cut out of P's generators
                if all(map(q.__and__, through[g])):
                    stack.append((q, g + 1))
            elif not dropped & (1 << g) - 1 and all(
                f & q for v in _bits(dropped) for f in through[v]
            ):
                stack.append((q, g + 1))
    flip = (2 << n) - 1  # the complement, under a leading 1 that keeps all n digits
    grown.sort(key=lambda m: m.bit_count() << (n + 1) | int(bin(m ^ flip)[:1:-1], 2))
    return SpecPoset(M.generator_names, tuple(grown), (element_masks, infinity_masks))


def spectrum_of_complex(delta: SimplicialComplex) -> SpecPoset:
    """The spectrum of the binoid of a complex: one prime per face F, the
    positions in ``delta.vertices`` outside F, in the order of `compute_spec`.

    Each complement is that of F minus its last vertex, without that
    vertex.  The primes come by size, largest faces first, and each
    dimension's faces backwards, since complements of equal-size faces
    reverse lexicographic order.

    >>> S = spectrum_of_complex(SimplicialComplex.from_facets([("a", "b"), ("c",)]))
    >>> [p.generator_subset for p in S.primes]
    [(2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    """
    position = _vertex_positions(delta)
    by_dim = delta._faces_by_dim()
    grown = {(): (1 << len(position)) - 1}  # face -> the bitmask of its complement
    for faces in list(by_dim.values())[1:]:  # after the empty face, parents first
        for face in faces:
            grown[face] = grown[face[:-1]] ^ 1 << position[face[-1]]
    masks = tuple(grown[face] for faces in reversed(by_dim.values()) for face in reversed(faces))
    return SpecPoset(delta.vertices, masks)


def _vertex_positions(delta: SimplicialComplex) -> dict:
    """The position of each vertex in ``delta.vertices``; a complex without
    vertices has no spectrum to speak of."""
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    return {v: i for i, v in enumerate(delta.vertices)}


def _complex_heights(delta: SimplicialComplex) -> list[int]:
    """The heights of the primes of `spectrum_of_complex(delta)`, in its
    order, with no Hasse diagram.

    The primes below that of a face F are those of the faces holding F, and
    each step down a chain adds one vertex, so the height is max |G| - |F|
    over the facets G above F: the largest size whose facets meet F's
    ``above`` mask.  Every face of a pure complex lies in a widest facet,
    which one AND tests; the other sizes are tried only when it fails.
    """
    by_size = {}
    for k, facet in enumerate(delta.facets):
        by_size[len(facet)] = by_size.get(len(facet), 0) | 1 << k
    widest = sorted(by_size.items(), reverse=True)
    top, largest = widest[0] if widest else (0, 0)
    return [
        (top if above & largest else next(size for size, fs in widest if fs & above))
        - len(face)
        for faces in reversed(delta._faces_by_dim().values())
        for face, above in reversed(faces.items())
    ]


def _complex_cover_nerve(delta: SimplicialComplex) -> tuple[list, SimplicialComplex]:
    """The minimal cover of the punctured spectrum of a complex and its
    nerve, as `nerve` over `_punctured_cover` gives them, with no spectrum.

    The primes just below the maximal ideal are the complements of the
    vertices, so the cover is D(v), one open per vertex in vertex order.
    The points of the nerve are the primes of the facets, and D(v) holds
    those of the facets through v: the nerve is the complex itself on the
    1-based positions of its vertices, whose facets are already maximal,
    sorted by position and covering every vertex.
    """
    position = _vertex_positions(delta)
    facets = tuple(tuple(position[v] + 1 for v in facet) for facet in delta.facets)
    vertices = tuple(range(1, len(position) + 1))
    return [(i,) for i in range(len(position))], SimplicialComplex(vertices, facets)


def height(S: SpecPoset, prime: PrimeIdeal) -> int:
    """Length of the longest chain of primes strictly below ``prime``."""
    return S._hasse_diagram()[1][S.position_of(prime)]


def primes_of_height_at_most(S: SpecPoset, bound: int) -> set[PrimeIdeal]:
    """Primes of height at most ``bound``; bound 1 gives the punctured Weil locus."""
    heights = S._hasse_diagram()[1]
    return {_prime(m) for m, h in zip(S._primes, heights) if h <= bound}


def punctured_spectrum(S: SpecPoset) -> set[PrimeIdeal]:
    """Every prime except the maximal ideal of the positive presentation."""
    full = (1 << len(S.generator_names)) - 1
    return {_prime(m) for m in S._primes if m != full}


def minimal_cover(S: SpecPoset, opens: Iterable[PrimeIdeal]) -> list[tuple[int, ...]]:
    """Supports of the canonical smallest cover of an open set by basic opens.

    One basic open per maximal prime of the set; the support is the
    complement of that prime.  Returned in sorted order.  The set is open
    when it holds every prime below its own, that is, every prime just
    below one of them; then the maximal primes are those that no prime of
    the set covers.
    """
    U = {S.position_of(p) for p in opens}
    covers = S._hasse_diagram()[0]
    below = {c for i in U for c in covers[i]}
    if not below <= U:
        raise NotOpen("subset is not closed under passing to smaller primes")
    full = (1 << len(S.generator_names)) - 1
    return sorted(tuple(_bits(full & ~S._primes[i])) for i in U - below)


def _punctured_cover(S: SpecPoset) -> list[tuple[tuple[int, ...], int]]:
    """The minimal cover of the punctured spectrum, sorted, as pairs of a
    support and the position of the prime it is the complement of.

    The primes of the punctured spectrum that no other one covers are the
    primes just below the maximal ideal, which comes last.
    """
    covers = S._hasse_diagram()[0]
    full = S._primes[-1]
    return sorted((tuple(_bits(full & ~S._primes[i])), i) for i in covers[-1])


def nerve(S: SpecPoset, cover: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Nerve of a list of basic opens, on 1-based vertices indexing the list.

    A set of indices spans a face when the corresponding opens intersect;
    indices whose open is empty are dropped.  Each open is the set of primes
    it holds, so each prime gives one candidate face: the opens holding it.
    A prime below another holds every open the larger one does, so only the
    minimal primes, those with no lower cover, are taken as points; an open
    D(f) holds those outside which every generator of f lies.
    """
    n = len(S.generator_names)
    full = (1 << n) - 1
    outside = [0] * n  # per generator, the points it lies outside of
    points = 0
    for mask, below in zip(S._primes, S._hasse_diagram()[0]):
        if not below:
            for g in _bits(full & ~mask):
                outside[g] |= 1 << points
            points += 1
    opens = []
    for support in cover:
        held = (1 << points) - 1
        for g in support:
            if g.__class__ is not int or not 0 <= g < n:
                raise NotInSpec(
                    "the support %r holds %r, which is not a generator index in 0..%d"
                    % (tuple(support), g, n - 1)
                )
            held &= outside[g]
        opens.append(held)
    return nerve_of_sets(opens, points)


def _labels(S: SpecPoset, masks: Iterable[int], text=str) -> list[str]:
    """Display forms of primes given as bitmasks: generator names between
    angle brackets, <inf> for the empty prime; ``text`` turns each name
    into a string, once."""
    names = list(map(text, S.generator_names))
    return ["<" + ",".join(_members(m, names)) + ">" if m else "<inf>" for m in masks]


def _dot_text(name) -> str:
    """A name inside a DOT string, its backslashes and quotes escaped."""
    return str(name).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(S: SpecPoset) -> str:
    """Hasse diagram of the spectrum in DOT format, maximal primes on top.

    The edges come sorted with no sort: each prime's upper covers are
    listed as the primes above it are passed in order.
    """
    lines = ["digraph spec {", "  rankdir=BT;"]
    lines += ['  p%d [label="%s"];' % node for node in enumerate(_labels(S, S._primes, _dot_text))]
    covers = S._hasse_diagram()[0]
    above = [[] for _ in covers]
    for i, below in enumerate(covers):
        for c in below:
            above[c].append(i)
    heads = ["p%d;" % i for i in range(len(covers))]
    for a, up in enumerate(above):
        tail = "  p%d -> " % a
        lines += [tail + heads[b] for b in up]
    lines.append("}")
    return "\n".join(lines) + "\n"
