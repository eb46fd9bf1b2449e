"""Prime spectra of finitely presented binoids as finite posets.

A subset of the generators spans a prime ideal exactly when every element
relation has both or neither side supported on it and every infinity
relation is supported on it.  The spectrum is the resulting union-closed
family, ordered by inclusion.  Balanced sets are closed under union, so
every generator subset holds a largest balanced one, its interior, and
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
support a larger one avoids, so the primes above them add no face.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record, setfield
from .binoid import BinoidPresentation, _support
from .errors import NotInSpec, NotOpen, NotPositive, VoidComplex
from .simplicial import SimplicialComplex, _bits, nerve_of_sets


class PrimeIdeal(tuple):
    """A prime ideal: the tuple of the sorted generator indices it contains,
    which it equals, hashes and orders as.

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


class SpecPoset(Record):
    """All prime ideals of a presentation, sorted by size then lexicographically.

    The relation supports are kept as `_relation_masks` gives them (none for
    a complex), and the primes' generator bitmasks as the enumeration found
    them; neither is compared or shown.  The position index, the Hasse
    diagram with the heights and any bitmasks not given are built on first
    use and kept.
    """

    _fields = ("generator_names", "primes")
    _index = _hasse = None

    def __init__(
        self,
        generator_names: tuple,
        primes: tuple[PrimeIdeal, ...],
        _relations: tuple = ((), ()),
        _masks: tuple | None = None,
    ):
        setfield(self, "generator_names", generator_names)
        setfield(self, "primes", primes)
        setfield(self, "_relations", _relations)
        setfield(self, "_masks", _masks)

    def _positions(self) -> dict:
        if self._index is None:
            lookup = {p: i for i, p in enumerate(self.primes)}
            object.__setattr__(self, "_index", lookup)
        return self._index

    def position_of(self, prime: PrimeIdeal) -> int:
        if not isinstance(prime, PrimeIdeal):
            raise NotInSpec(f"{prime!r} is not a PrimeIdeal")
        positions = self._positions()
        if prime not in positions:
            raise NotInSpec(f"{prime.generator_subset} is not a prime ideal here")
        return positions[prime]

    def __contains__(self, prime) -> bool:
        return isinstance(prime, PrimeIdeal) and prime in self._positions()

    def _generator_masks(self) -> tuple:
        """Per position, the prime's generators as a bitmask."""
        if self._masks is None:
            masks = tuple(map(_mask, self.primes))
            object.__setattr__(self, "_masks", masks)
        return self._masks

    def _hasse_diagram(self) -> tuple:
        """Per position, the positions of the primes it covers, and its height.

        Without element relations the primes just above p are the p ∪ {g},
        g outside p (a poset built bare skips those it lacks); visiting the
        primes smallest first and handing each to the primes above it keeps
        every cover list sorted and every height final before it is read.
        With element relations the primes inside p are found at once, as
        the bits of their positions: those without any generator outside
        p, all before p.  The last of them is just below p, and so is the
        last of those left after taking out every prime inside one found.
        """
        if self._hasse is None:
            masks = self._generator_masks()
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


def _mask(generators) -> int:
    return sum(1 << i for i in generators)


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
    """
    n = M.generator_count
    element_masks, infinity_masks = _relation_masks(M)
    through = [[] for _ in range(n)]  # the infinity supports through each generator
    for f in infinity_masks:
        for v in _bits(f):
            through[v].append(f)
    grown = []
    stack = [((1 << n) - 1, tuple(range(n)), 0)]  # (P, its sorted generators, start)
    while stack:
        mask, rest, start = stack.pop()
        grown.append((mask, rest))
        for k in range(start, len(rest)):  # Q keeps the k generators of P below g
            g = rest[k]
            q = _interior(mask ^ 1 << g, element_masks)
            dropped = mask ^ q
            if dropped == 1 << g:  # g alone is cut out of P's generators
                if all(map(q.__and__, through[g])):
                    stack.append((q, rest[:k] + rest[k + 1 :], k))
            elif not dropped & (1 << g) - 1 and all(
                f & q for v in _bits(dropped) for f in through[v]
            ):
                stack.append((q, tuple(_bits(q)), k))
    grown.sort(key=lambda pair: (len(pair[1]), pair[1]))
    primes = tuple(tuple.__new__(PrimeIdeal, generators) for _, generators in grown)
    relations = (element_masks, infinity_masks)
    return SpecPoset(M.generator_names, primes, relations, tuple(mask for mask, _ in grown))


def spectrum_of_complex(delta: SimplicialComplex) -> SpecPoset:
    """The spectrum of the binoid of a complex: one prime per face F, the
    positions in ``delta.vertices`` outside F, in the order of `compute_spec`.

    Each complement is grown from that of F minus its last vertex v, which
    lies below v, so v is cut out of it at v - |F| + 1.  The primes come
    by size, largest faces first, and each dimension's faces backwards,
    since complements of equal-size faces reverse lexicographic order.

    >>> S = spectrum_of_complex(SimplicialComplex.from_facets([("a", "b"), ("c",)]))
    >>> [prime_label(S, p) for p in S.primes]
    ['<c>', '<a,b>', '<a,c>', '<b,c>', '<a,b,c>']
    """
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    n = len(delta.vertices)
    position = {v: i for i, v in enumerate(delta.vertices)}
    by_dim = delta._faces_by_dim()
    grown = {(): ((1 << n) - 1, tuple(range(n)))}  # face -> (bitmask, positions) of its complement
    for faces in list(by_dim.values())[1:]:  # after the empty face, parents first
        for face in faces:
            mask, rest = grown[face[:-1]]
            v = position[face[-1]]
            k = v - len(face) + 1
            grown[face] = (mask ^ 1 << v, rest[:k] + rest[k + 1 :])
    pairs = [grown[face] for faces in reversed(by_dim.values()) for face in reversed(faces)]
    primes = tuple(tuple.__new__(PrimeIdeal, generators) for _, generators in pairs)
    return SpecPoset(delta.vertices, primes, ((), ()), tuple(mask for mask, _ in pairs))


def height(S: SpecPoset, prime: PrimeIdeal) -> int:
    """Length of the longest chain of primes strictly below ``prime``."""
    return S._hasse_diagram()[1][S.position_of(prime)]


def primes_of_height_at_most(S: SpecPoset, bound: int) -> set[PrimeIdeal]:
    """Primes of height at most ``bound``; bound 1 gives the punctured Weil locus."""
    heights = S._hasse_diagram()[1]
    return {p for p, h in zip(S.primes, heights) if h <= bound}


def punctured_spectrum(S: SpecPoset) -> set[PrimeIdeal]:
    """Every prime except the maximal ideal of the positive presentation."""
    full = tuple(range(len(S.generator_names)))
    return {p for p in S.primes if p != full}


def minimal_neighborhood(S: SpecPoset, prime: PrimeIdeal) -> tuple[int, ...]:
    """Support of the smallest basic open set containing ``prime``.

    Localizing at the sum of all generators outside the prime keeps
    exactly the primes contained in it.
    """
    S.position_of(prime)
    inside = set(prime)
    return tuple(i for i in range(len(S.generator_names)) if i not in inside)


def open_subset(S: SpecPoset, support: Sequence[int]) -> set[PrimeIdeal]:
    """Primes avoiding every generator in ``support`` (the set D(f))."""
    avoid = set(support)
    return {p for p in S.primes if avoid.isdisjoint(p)}


def _check_open(S: SpecPoset, opens: Iterable[PrimeIdeal]) -> set[int]:
    """Positions of the primes of an open set, which holds every prime below them."""
    U = {S.position_of(p) for p in opens}
    masks = S._generator_masks()
    inside = [masks[i] for i in U]
    for j, q in enumerate(masks):
        if j not in U and any(not q & ~m for m in inside):
            raise NotOpen("subset is not closed under passing to smaller primes")
    return U


def minimal_cover(S: SpecPoset, opens: Iterable[PrimeIdeal]) -> list[tuple[int, ...]]:
    """Supports of the canonical smallest cover of an open set by basic opens.

    One basic open per maximal prime of the set; the support is the
    complement of that prime.  Returned in sorted order.  The maximal primes
    are those that no prime of the set covers: the set holds every prime
    below its own, so a prime below another one of it lies just below one.
    """
    U = _check_open(S, opens)
    covers = S._hasse_diagram()[0]
    masks = S._generator_masks()
    full = (1 << len(S.generator_names)) - 1
    below = {c for i in U for c in covers[i]}
    return sorted(tuple(_bits(full & ~masks[i])) for i in U - below)


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
    for mask, below in zip(S._generator_masks(), S._hasse_diagram()[0]):
        if not below:
            for g in _bits(full & ~mask):
                outside[g] |= 1 << points
            points += 1
    opens = []
    for support in cover:
        held = (1 << points) - 1
        for g in _bits(_mask(set(support)) & full):
            held &= outside[g]
        opens.append(held)
    return nerve_of_sets(opens, points)


def connected_components(S: SpecPoset, opens: Iterable[PrimeIdeal]) -> int:
    """Number of connected components of an open set, via comparability.

    Comparable primes of an open set are joined by a chain of covers
    inside it, so the Hasse edges within the set suffice.
    """
    U = _check_open(S, opens)
    covers = S._hasse_diagram()[0]
    parent = {i: i for i in U}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in U:
        for c in covers[i]:
            parent[find(c)] = find(i)
    return len({find(i) for i in U})


def _labels(S: SpecPoset, primes: Iterable[PrimeIdeal], text=str) -> list[str]:
    """Display forms of primes: generator names between angle brackets,
    <inf> for the empty prime; ``text`` turns each name into a string, once."""
    names = list(map(text, S.generator_names))
    return ["<" + ",".join(map(names.__getitem__, p)) + ">" if p else "<inf>" for p in primes]


def _dot_text(name) -> str:
    """A name inside a DOT string, its backslashes and quotes escaped."""
    return str(name).replace("\\", "\\\\").replace('"', '\\"')


def prime_label(S: SpecPoset, prime: PrimeIdeal) -> str:
    """Display form of a prime: generator names between angle brackets."""
    return _labels(S, (prime,))[0]


def to_dot(S: SpecPoset) -> str:
    """Hasse diagram of the spectrum in DOT format, maximal primes on top.

    The edges come sorted with no sort: each prime's upper covers are
    listed as the primes above it are passed in order.
    """
    lines = ["digraph spec {", "  rankdir=BT;"]
    lines += ['  p%d [label="%s"];' % node for node in enumerate(_labels(S, S.primes, _dot_text))]
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
