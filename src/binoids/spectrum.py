"""Prime spectra of finitely presented binoids as finite posets.

A subset of the generators spans a prime ideal exactly when every element
relation has both or neither side supported on it and every infinity
relation is supported on it.  The spectrum is the resulting union-closed
family, ordered by inclusion.  For the binoid of a simplicial complex the
primes are the complements of its faces, so `spectrum_of_complex` reads
them off the faces the complex already holds, with no presentation.
Without element relations the work follows that face poset: each prime
is its parent face's with one generator cut out, and the primes just
above p are the p ∪ {g}, g outside p, one Hasse edge per (face, vertex).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record, setfield
from .binoid import BinoidPresentation, _support
from .errors import NotInSpec, NotOpen, NotPositive, VoidComplex
from .simplicial import SimplicialComplex, _bits, nerve_of_sets, subsets_avoiding


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
        With element relations a prime q just below p is the largest prime
        inside p minus some generator of p outside q, so the lower covers
        of p are the maximal ones among at most |p| interiors.
        """
        if self._hasse is None:
            element_masks, infinity_masks = self._relations
            masks = self._generator_masks()
            where = {m: i for i, m in enumerate(masks)}
            if element_masks:
                covers, heights = [], []
                for p, mask in zip(self.primes, masks):  # smaller primes come first
                    below = {
                        q if q in where else _interior(q, element_masks, infinity_masks)
                        for q in (mask & ~(1 << g) for g in p)
                    }
                    below.discard(None)
                    below = [q for q in below if not any(q != r and not q & ~r for r in below)]
                    lower = sorted(where[q] for q in below if q in where)
                    covers.append(tuple(lower))
                    heights.append(max((heights[c] + 1 for c in lower), default=0))
            else:
                full = (1 << len(self.generator_names)) - 1
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


def _interior(mask: int, element_masks, infinity_masks) -> int | None:
    """The largest prime inside ``mask``, or None when no prime lies inside it.

    A relation side that ``mask`` meets while missing the other side can
    meet no prime inside ``mask``, so it is dropped until every relation
    is balanced; every prime inside ``mask`` lies in what is left, which
    is itself prime exactly when it meets every infinity relation.
    """
    unbalanced = True
    while unbalanced:
        unbalanced = False
        for lhs, rhs in element_masks:
            if bool(mask & lhs) != bool(mask & rhs):
                mask &= ~(lhs | rhs)
                unbalanced = True
    return mask if all(mask & f for f in infinity_masks) else None


def compute_spec(M: BinoidPresentation) -> SpecPoset:
    """Enumerate the prime ideals of a positive presentation.

    Without element relations (simplicial and monomial presentations) the
    primes are the complements of the faces of the complex whose non-faces
    are the relation supports, and those faces are grown one later
    generator at a time, in about n steps per prime; `spectrum_of_complex`
    reads them off a complex at hand instead.  With element relations
    every one of the 2^n generator subsets is tested against the
    criterion; that scan, and the 2^|cover| opens of
    ``cech.local_picard_general``, are the exponential steps that remain.
    """
    n = M.generator_count
    element_masks, infinity_masks = _relation_masks(M)
    if element_masks:
        grown = [
            (m, tuple(_bits(m))) for m in range(1 << n)
            if all(bool(m & lhs) == bool(m & rhs) for lhs, rhs in element_masks)
            and all(m & f for f in infinity_masks)
        ]
    else:
        faces = (face for face, _ in subsets_avoiding(n, infinity_masks))
        grown = _complements(n, faces, range(n))
    return _spec_poset(M.generator_names, grown, (element_masks, infinity_masks))


def spectrum_of_complex(delta: SimplicialComplex) -> SpecPoset:
    """The spectrum of the binoid of a complex: one prime per face F, the
    positions in ``delta.vertices`` outside F, grown from the prime of F
    minus its last vertex and sorted as `compute_spec` sorts.

    >>> S = spectrum_of_complex(SimplicialComplex.from_facets([("a", "b"), ("c",)]))
    >>> [prime_label(S, p) for p in S.primes]
    ['<c>', '<a,b>', '<a,c>', '<b,c>', '<a,b,c>']
    """
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    position = {v: i for i, v in enumerate(delta.vertices)}
    grown = _complements(len(position), delta.all_faces(), position)
    return _spec_poset(delta.vertices, grown)


def _complements(n: int, faces: Iterable[tuple], position) -> Iterable[tuple]:
    """(bitmask, sorted positions) of the complement in range(n) of each face.

    Each face follows its parent, the face minus its last vertex v; the
    parent lies below v, so v is cut out of its complement at v - len(parent).
    """
    grown = {}
    for face in faces:
        if face:
            mask, rest = grown[face[:-1]]
            v = position[face[-1]]
            k = v - len(face) + 1
            grown[face] = (mask ^ 1 << v, rest[:k] + rest[k + 1 :])
        else:
            grown[face] = ((1 << n) - 1, tuple(range(n)))
    return grown.values()


def _spec_poset(names: tuple, grown: Iterable[tuple], relations=((), ())) -> SpecPoset:
    """The poset of the (bitmask, sorted generators) pairs, ordered by size
    and then generators; it keeps the bitmasks."""
    pairs = sorted(grown, key=lambda pair: (len(pair[1]), pair[1]))
    primes = tuple(tuple.__new__(PrimeIdeal, generators) for _, generators in pairs)
    return SpecPoset(names, primes, relations, tuple(mask for mask, _ in pairs))


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
    complement of that prime.  Returned in sorted order.
    """
    masks = S._generator_masks()
    maximal = []
    for i in sorted(_check_open(S, opens), reverse=True):  # larger primes first
        if all(masks[i] & ~masks[k] for k in maximal):
            maximal.append(i)
    return sorted(minimal_neighborhood(S, S.primes[i]) for i in maximal)


def nerve(S: SpecPoset, cover: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Nerve of a list of basic opens, on 1-based vertices indexing the list.

    A set of indices spans a face when the corresponding opens intersect;
    indices whose open is empty are dropped.  Each open is the set of primes
    it holds, so each prime gives one candidate face: the opens holding it.
    """
    last_first = S._generator_masks()[::-1]
    opens = []
    for support in cover:
        avoid = _mask(set(support))
        # one binary digit per prime, the last first: 1 when it avoids the support
        opens.append(int("0" + "".join(["0" if m & avoid else "1" for m in last_first]), 2))
    return nerve_of_sets(opens, len(last_first))


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


def prime_label(S: SpecPoset, prime: PrimeIdeal) -> str:
    """Display form of a prime: generator names between angle brackets."""
    if not prime:
        return "<inf>"
    names = S.generator_names
    return "<" + ",".join([str(names[i]) for i in prime]) + ">"


def to_dot(S: SpecPoset) -> str:
    """Hasse diagram of the spectrum in DOT format, maximal primes on top."""
    lines = ["digraph spec {", "  rankdir=BT;"]
    for i, p in enumerate(S.primes):
        lines.append(f'  p{i} [label="{prime_label(S, p)}"];')
    covers = S._hasse_diagram()[0]
    for a, b in sorted((c, i) for i, below in enumerate(covers) for c in below):
        lines.append(f"  p{a} -> p{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
