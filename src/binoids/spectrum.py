"""Prime spectra of finitely presented binoids as finite posets.

A subset of the generators spans a prime ideal exactly when every element
relation has both or neither side supported on it and every infinity
relation is supported on it.  The spectrum is the resulting union-closed
family, ordered by inclusion.  For the binoid of a simplicial complex the
primes are the complements of its faces, so `spectrum_of_complex` reads
them off the faces the complex already holds, with no presentation.
"""

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .binoid import BinoidPresentation
from .errors import NotInSpec, NotOpen, NotPositive, VoidComplex
from .simplicial import SimplicialComplex, nerve_of_sets, subsets_avoiding


@dataclass(frozen=True, order=True)
class PrimeIdeal:
    """A prime ideal, recorded by the sorted generator indices it contains."""

    generator_subset: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "generator_subset", tuple(sorted(self.generator_subset))
        )

    def __iter__(self):
        return iter(self.generator_subset)

    def __len__(self):
        return len(self.generator_subset)


@dataclass(frozen=True)
class SpecPoset:
    """All prime ideals of a presentation, sorted by size then lexicographically.

    The relation supports are kept as `_relation_masks` gives them (none for
    a complex), and the primes' generator bitmasks as the enumeration found
    them.  The position index, the Hasse diagram with the heights and any
    bitmasks not given are built on first use and kept.
    """

    generator_names: tuple
    primes: Tuple[PrimeIdeal, ...]
    _relations: tuple = field(default=((), ()), repr=False, compare=False)
    _masks: tuple = field(default=None, repr=False, compare=False)
    _index: dict = field(default=None, init=False, repr=False, compare=False)
    _hasse: tuple = field(default=None, init=False, repr=False, compare=False)

    def _positions(self) -> dict:
        if self._index is None:
            lookup = {p: i for i, p in enumerate(self.primes)}
            object.__setattr__(self, "_index", lookup)
        return self._index

    def position_of(self, prime: PrimeIdeal) -> int:
        positions = self._positions()
        if prime not in positions:
            raise NotInSpec(f"{prime.generator_subset} is not a prime ideal here")
        return positions[prime]

    def __contains__(self, prime) -> bool:
        return isinstance(prime, PrimeIdeal) and prime in self._positions()

    def _generator_masks(self) -> tuple:
        """Per position, the prime's generators as a bitmask."""
        if self._masks is None:
            masks = tuple(_mask(p.generator_subset) for p in self.primes)
            object.__setattr__(self, "_masks", masks)
        return self._masks

    def _hasse_diagram(self) -> tuple:
        """Per position, the positions of the primes it covers, and its height.

        A prime q just below p is the largest prime inside p minus some
        generator of p outside q, so the lower covers of p are the maximal
        ones among at most |p| interiors.  A p minus g that is prime is its
        own interior.  Without element relations every other p minus g
        holds no prime, so the primes among them are all the covers.
        """
        if self._hasse is None:
            element_masks, infinity_masks = self._relations
            masks = self._generator_masks()
            where = {m: i for i, m in enumerate(masks)}
            covers, heights = [], []
            for p, mask in zip(self.primes, masks):  # smaller primes come first
                below = {mask & ~(1 << g) for g in p.generator_subset}
                if element_masks:
                    below = {
                        q if q in where else _interior(q, element_masks, infinity_masks)
                        for q in below
                    }
                    below.discard(None)
                    below = [q for q in below if not any(q != r and not q & ~r for r in below)]
                lower = sorted(where[q] for q in below if q in where)
                covers.append(tuple(lower))
                heights.append(max((heights[c] + 1 for c in lower), default=0))
            object.__setattr__(self, "_hasse", (tuple(covers), tuple(heights)))
        return self._hasse


def _sort_key(prime: PrimeIdeal):
    return (len(prime.generator_subset), prime.generator_subset)


def _mask(generators) -> int:
    return sum(1 << i for i in generators)


def _mask_members(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _relation_masks(M: BinoidPresentation):
    """Supports as bitmasks: (lhs, rhs) per element relation, lhs per infinity one."""
    element_masks = []
    infinity_masks = []
    for rel in M.relations:
        lhs = _mask(rel.lhs_support())
        if not lhs:
            raise NotPositive("relation with empty left-hand support")
        if rel.is_infinity:
            infinity_masks.append(lhs)
        else:
            rhs = _mask(rel.rhs_support())
            if not rhs:
                raise NotPositive("relation with empty right-hand support")
            element_masks.append((lhs, rhs))
    return element_masks, infinity_masks


def _interior(mask: int, element_masks, infinity_masks) -> Optional[int]:
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
        masks = [
            m for m in range(1 << n)
            if all(bool(m & lhs) == bool(m & rhs) for lhs, rhs in element_masks)
            and all(m & f for f in infinity_masks)
        ]
    else:
        full = (1 << n) - 1
        masks = [full & ~face for _, face in subsets_avoiding(n, infinity_masks)]
    return _spec_poset(M.generator_names, masks, (element_masks, infinity_masks))


def spectrum_of_complex(delta: SimplicialComplex) -> SpecPoset:
    """The spectrum of the binoid of a complex: one prime per face F, the
    positions in ``delta.vertices`` outside F, sorted as `compute_spec` sorts.

    >>> S = spectrum_of_complex(SimplicialComplex.from_facets([("a", "b"), ("c",)]))
    >>> [prime_label(S, p) for p in S.primes]
    ['<c>', '<a,b>', '<a,c>', '<b,c>', '<a,b,c>']
    """
    if delta.is_void or not delta.vertices:
        raise VoidComplex("need a complex with at least one vertex")
    bit = {v: 1 << i for i, v in enumerate(delta.vertices)}
    full = (1 << len(bit)) - 1
    masks = [full & ~sum(bit[v] for v in face) for face in delta.all_faces()]
    return _spec_poset(delta.vertices, masks)


def _spec_poset(names: tuple, masks: list, relations=((), ())) -> SpecPoset:
    """The poset of the primes with these generator bitmasks, which it keeps."""
    primes = {m: PrimeIdeal(tuple(_mask_members(m))) for m in masks}
    order = sorted(primes, key=lambda m: _sort_key(primes[m]))
    return SpecPoset(names, tuple(map(primes.get, order)), relations, tuple(order))


def height(S: SpecPoset, prime: PrimeIdeal) -> int:
    """Length of the longest chain of primes strictly below ``prime``."""
    return S._hasse_diagram()[1][S.position_of(prime)]


def primes_of_height_at_most(S: SpecPoset, bound: int) -> Set[PrimeIdeal]:
    """Primes of height at most ``bound``; bound 1 gives the punctured Weil locus."""
    heights = S._hasse_diagram()[1]
    return {p for p, h in zip(S.primes, heights) if h <= bound}


def punctured_spectrum(S: SpecPoset) -> Set[PrimeIdeal]:
    """Every prime except the maximal ideal of the positive presentation."""
    full = tuple(range(len(S.generator_names)))
    return {p for p in S.primes if p.generator_subset != full}


def minimal_neighborhood(S: SpecPoset, prime: PrimeIdeal) -> Tuple[int, ...]:
    """Support of the smallest basic open set containing ``prime``.

    Localizing at the sum of all generators outside the prime keeps
    exactly the primes contained in it.
    """
    S.position_of(prime)
    inside = set(prime.generator_subset)
    return tuple(i for i in range(len(S.generator_names)) if i not in inside)


def open_subset(S: SpecPoset, support: Sequence[int]) -> Set[PrimeIdeal]:
    """Primes avoiding every generator in ``support`` (the set D(f))."""
    avoid = set(support)
    return {p for p in S.primes if avoid.isdisjoint(p.generator_subset)}


def _check_open(S: SpecPoset, opens: Iterable[PrimeIdeal]) -> Set[int]:
    """Positions of the primes of an open set, which holds every prime below them."""
    U = {S.position_of(p) for p in opens}
    masks = S._generator_masks()
    inside = [masks[i] for i in U]
    for j, q in enumerate(masks):
        if j not in U and any(not q & ~m for m in inside):
            raise NotOpen("subset is not closed under passing to smaller primes")
    return U


def minimal_cover(S: SpecPoset, opens: Iterable[PrimeIdeal]) -> List[Tuple[int, ...]]:
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
    prime_masks = S._generator_masks()
    opens = []
    for support in cover:
        avoid = _mask(set(support))
        opens.append(_mask(k for k, m in enumerate(prime_masks) if not m & avoid))
    return nerve_of_sets(opens, len(prime_masks))


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
    if not prime.generator_subset:
        return "<inf>"
    names = S.generator_names
    return "<" + ",".join(str(names[i]) for i in prime.generator_subset) + ">"


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
