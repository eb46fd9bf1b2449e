"""Spectra, heights, Hasse diagrams, crosscuts and nerves against subset scans.

The package grows faces one vertex at a time and reads heights and covers
off a cached Hasse diagram; the oracles in `oracles.py` scan every subset
instead and never import the package.
"""

import contextlib
import io
import json
import tempfile
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from binoids.binoid import (
    BinoidPresentation,
    Relation,
    as_simplicial,
    from_simplicial,
    radical_complex,
)
from binoids.cech import _pic_open_cover, _weil_cover, pic_open_subset
from binoids.cli import main
from binoids.errors import NotAFace, NotOpen, UnknownVertex
from binoids.simplicial import SimplicialComplex
from binoids.spectrum import (
    compute_spec,
    height,
    minimal_cover,
    nerve,
    primes_of_height_at_most,
    punctured_spectrum,
    spectrum_of_complex,
    to_dot,
)

from fixtures import CONE_RP2_FACETS, cycle_facets, free_binoid, path_facets, star_facets
from oracles import (
    all_subsets,
    brute_cover_edges,
    brute_crosscut,
    brute_faces,
    brute_heights,
    brute_link,
    brute_maximal,
    brute_minimal_nonfaces,
    brute_nerve,
    brute_spectrum,
    brute_weil_cover,
    weil_pic_open_ranks,
)


@st.composite
def complexes(draw, max_vertices=9):
    """A complex on at most nine vertices, declared in a shuffled label order."""
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.permutations(range(1, n + 1)))
    facets = draw(
        st.lists(
            st.lists(st.sampled_from(labels), min_size=1, max_size=min(n, 5), unique=True),
            min_size=1,
            max_size=n + 3,
        )
    )
    return SimplicialComplex.make(labels, facets)


@st.composite
def complexes_with_isolated_vertices(draw):
    """A complex on at most seven vertices, with up to three more vertices in
    no facet declared at drawn places in its shuffled vertex order."""
    c = draw(complexes(7))
    labels = list(c.vertices)
    for extra in range(draw(st.integers(0, 3))):
        labels.insert(draw(st.integers(0, len(labels))), 100 + extra)
    return SimplicialComplex.make(labels, c.facets)


@st.composite
def monomial_presentations(draw):
    """Monomial presentations, with squared generators, repeated supports or none."""
    n = draw(st.integers(1, 8))
    vector = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
    gens = draw(st.lists(vector, max_size=n + 2))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    names = tuple("x%d" % i for i in range(n))
    return BinoidPresentation(names, tuple(Relation(v, None) for v in gens))


@st.composite
def integral_presentations(draw):
    """Up to three element relations on at most six generators."""
    n = draw(st.integers(1, 6))
    side = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
    pairs = draw(st.lists(st.tuples(side, side).filter(lambda p: p[0] != p[1]), max_size=3))
    names = tuple("g%d" % i for i in range(n))
    return BinoidPresentation(names, tuple(Relation(l, r) for l, r in pairs))


@st.composite
def mixed_presentations(draw):
    """Element relations and squarefree infinity relations of one or two
    generators together, on at most ten generators."""
    n = draw(st.integers(1, 10))
    side = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
    pair = st.tuples(side, side).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    ideal = st.sets(st.integers(0, n - 1), min_size=1, max_size=2)
    sups = draw(st.lists(ideal, min_size=max(1, n // 2), max_size=n))
    names = tuple("g%d" % i for i in range(n))
    element = tuple(Relation(l, r) for l, r in pairs)
    return BinoidPresentation(
        names, element + tuple(Relation(tuple(int(i in s) for i in range(n)), None) for s in sups)
    )


def supports(M):
    support = lambda vector: frozenset(i for i, x in enumerate(vector) if x)
    element = [(support(rel.lhs), support(rel.rhs)) for rel in M.relations if not rel.is_infinity]
    infinity = [support(rel.lhs) for rel in M.relations if rel.is_infinity]
    return element, infinity


def spec_tuples(S):
    return [p.generator_subset for p in S.primes]


def check_spectrum_against_oracles(M):
    S = compute_spec(M)
    check_poset_against_oracles(S, brute_spectrum(M.generator_count, *supports(M)))
    return S


def check_poset_against_oracles(S, primes):
    assert spec_tuples(S) == primes
    heights = brute_heights(primes)
    assert [height(S, p) for p in S.primes] == [heights[p] for p in primes]
    position = {p: i for i, p in enumerate(primes)}
    edges = sorted(
        (position[tuple(sorted(a))], position[tuple(sorted(b))])
        for a, b in brute_cover_edges([frozenset(p) for p in primes])
    )
    arrows = [line for line in to_dot(S).splitlines() if "->" in line]
    assert arrows == ["  p%d -> p%d;" % edge for edge in edges]


class TestSpectrumAgainstSubsetScan:
    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_simplicial(self, c):
        M = from_simplicial(c)
        expected = brute_minimal_nonfaces(c.vertices, c.facets)
        got = [tuple(i for i, x in enumerate(rel.lhs) if x) for rel in M.relations]
        assert got == expected  # pins the relation order: by size, then positions
        assert all(rel.is_infinity and max(rel.lhs) == 1 for rel in M.relations)
        check_spectrum_against_oracles(M)

    @settings(max_examples=60, deadline=None)
    @given(monomial_presentations())
    def test_monomial(self, M):
        check_spectrum_against_oracles(M)
        _, infinity = supports(M)
        names = M.generator_names
        expected = {
            frozenset(names[i] for i in face)
            for face in brute_spectrum(M.generator_count, [], [])
            if not any(s <= set(face) for s in infinity)
        }
        radical = radical_complex(M)
        assert {frozenset(f) for f in radical.all_faces()} == expected
        if all(max(rel.lhs) == 1 for rel in M.relations):
            assert as_simplicial(M) == radical

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(integral_presentations(), mixed_presentations()))
    def test_element_relations(self, M):
        """With infinity relations too, a child that drops several generators
        at once is tested against the supports through each of them."""
        check_spectrum_against_oracles(M)

    @settings(max_examples=80, deadline=None)
    @given(complexes_with_isolated_vertices())
    def test_faces_of_a_complex(self, c):
        """Read off the faces, the spectrum is the presentation's, and the
        Weil locus of either gives the same Picard groups of open sets."""
        S = spectrum_of_complex(c)
        T = compute_spec(from_simplicial(c))
        assert S == T and S.generator_names == T.generator_names == c.vertices
        assert S._primes == T._primes
        assert S._hasse_diagram() == T._hasse_diagram()
        assert to_dot(S) == to_dot(T)
        supports = [set(s) for s in brute_minimal_nonfaces(c.vertices, c.facets)]
        check_poset_against_oracles(S, brute_spectrum(len(c.vertices), [], supports))

        weil = [primes_of_height_at_most(X, 1) & punctured_spectrum(X) for X in (S, T)]
        assert weil[0] == weil[1]
        groups = pic_open_subset(c, weil[1])
        assert groups == _pic_open_cover(c, _weil_cover(c))
        ranks = [g.free_rank for g in groups] + [0, 0]  # the list stops at the top degree
        assert tuple(ranks[:2]) == weil_pic_open_ranks(c.facets)


class TestReadOffTheFaces:
    """What the command line reads off a complex's faces without the general
    route: the Weil locus's cover, and the primes' labels in their order."""

    @settings(max_examples=80, deadline=None)
    @given(complexes_with_isolated_vertices())
    def test_weil_cover(self, c):
        S = spectrum_of_complex(c)
        weil = primes_of_height_at_most(S, 1) & punctured_spectrum(S)
        assert _weil_cover(c) == minimal_cover(S, weil) == brute_weil_cover(c.vertices, c.facets)

    @settings(max_examples=60, deadline=None)
    @given(complexes_with_isolated_vertices(), st.data())
    def test_spec_text_and_dot_nodes(self, c, data):
        """Vertices named by integers, by strings or by both."""
        n = len(c.vertices)
        named = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        label = {v: "v%d" % v if s else v for v, s in zip(c.vertices, named)}
        names = [label[v] for v in c.vertices]
        text = "vertices: %s\n" % " ".join(map(str, names))
        text += "".join("facet: %s\n" % " ".join(str(label[v]) for v in f) for f in c.facets)
        supports = [set(s) for s in brute_minimal_nonfaces(c.vertices, c.facets)]
        shown = [
            "<%s>" % ",".join(str(names[i]) for i in p) if p else "<inf>"
            for p in brute_spectrum(n, [], supports)
        ]
        with tempfile.TemporaryDirectory() as folder:
            path = folder + "/complex.cplx"
            with open(path, "w") as handle:
                handle.write(text)
            outputs = []
            for verb in ("spec", "dot"):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main([verb, path]) == 0
                outputs.append(out.getvalue())
        assert outputs[0] == "".join(s + "\n" for s in shown)
        nodes = [line for line in outputs[1].splitlines() if "label=" in line]
        assert nodes == ['  p%d [label="%s"];' % pair for pair in enumerate(shown)]

    @settings(max_examples=60, deadline=None)
    @given(complexes_with_isolated_vertices(), st.data())
    def test_nerve_and_heights(self, c, data):
        """`nerve`, as text and JSON, against the nerve of the minimal cover
        of the punctured spectrum, and the heights of `spec --json`, both
        over a subset scan; vertices named by integers, strings or both."""
        n = len(c.vertices)
        named = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        label = {v: "v%d" % v if s else v for v, s in zip(c.vertices, named)}
        names = [label[v] for v in c.vertices]
        text = "vertices: %s\n" % " ".join(map(str, names))
        text += "".join("facet: %s\n" % " ".join(str(label[v]) for v in f) for f in c.facets)
        supports = [set(s) for s in brute_minimal_nonfaces(c.vertices, c.facets)]
        primes = brute_spectrum(n, [], supports)
        punctured = [set(p) for p in primes[:-1]]  # the maximal ideal comes last
        cover = sorted(
            tuple(i for i in range(n) if i not in p)
            for p in punctured
            if not any(p < q for q in punctured)
        )
        faces = brute_nerve(primes, cover)
        with tempfile.TemporaryDirectory() as folder:
            path = folder + "/complex.cplx"
            with open(path, "w") as handle:
                handle.write(text)
            outputs = []
            for argv in (["nerve", path], ["nerve", path, "--json"], ["spec", path, "--json"]):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(argv) == 0
                outputs.append(out.getvalue())
        nerve_text, nerve_json, spec_json = outputs[0], json.loads(outputs[1]), json.loads(outputs[2])
        shown = [[names[i] for i in sup] for sup in cover]
        assert nerve_json["cover"] == [
            {"index": i, "support": sup} for i, sup in enumerate(shown, 1)
        ]
        assert {s for f in nerve_json["facets"] for s in all_subsets(f) if s} == faces
        assert nerve_json["vertices"] == sorted({i for f in faces for i in f})
        assert nerve_text == "".join(
            "# %d: D(%s)\n" % (i, ",".join(map(str, sup))) for i, sup in enumerate(shown, 1)
        ) + "vertices: %s\n" % " ".join(map(str, nerve_json["vertices"])) + "".join(
            "facet: %s\n" % " ".join(map(str, f)) for f in nerve_json["facets"]
        )
        heights = brute_heights(primes)
        position = {name: i for i, name in enumerate(names)}
        assert [
            (tuple(map(position.get, p["generators"])), p["height"]) for p in spec_json["primes"]
        ] == [(p, heights[p]) for p in primes]


def spec_json_oracle(names, primes, heights):
    """`spec --json` by the standard library's encoder, from the primes as
    sorted position tuples and their heights."""
    records = [{"generators": [names[i] for i in p], "height": heights[p]} for p in primes]
    payload = {"generators": list(names), "primes": records}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def spec_json(text):
    """stdout of `spec --json` on an input file with the given text."""
    with tempfile.TemporaryDirectory() as folder:
        path = folder + "/input.txt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["spec", path, "--json"]) == 0
    return out.getvalue()


def complex_spec_json_oracle(vertices, facets):
    """The oracle's `spec --json` of a complex: one prime per face, the
    positions of the vertices outside it, by size and then lexicographically."""
    primes = sorted(
        (tuple(i for i, v in enumerate(vertices) if v not in face) for face in brute_faces(facets)),
        key=lambda p: (len(p), p),
    )
    return spec_json_oracle(vertices, primes, brute_heights(primes))


# label prefixes that JSON escapes: a quote, a backslash, a control
# character, non-ASCII text
ESCAPED_PREFIXES = ['q"', "b\\", "\x01", "\u00e9", "\u4e2d"]


class TestSpecJsonAgainstJsonDumps:
    """`spec --json`, written one prime at a time, byte for byte against
    `json.dumps` of a payload built from subset scans alone."""

    @settings(max_examples=60, deadline=None)
    @given(complexes_with_isolated_vertices(), st.data())
    def test_random_complexes(self, c, data):
        """Vertices named by integers, by strings that need escaping, or both."""
        n = len(c.vertices)
        prefix = st.sampled_from([None] + ESCAPED_PREFIXES)
        prefixes = data.draw(st.lists(prefix, min_size=n, max_size=n))
        label = {v: v if p is None else "%s%d" % (p, v) for v, p in zip(c.vertices, prefixes)}
        names = [label[v] for v in c.vertices]
        text = "vertices: %s\n" % " ".join(map(str, names))
        text += "".join("facet: %s\n" % " ".join(str(label[v]) for v in f) for f in c.facets)
        facets = [[label[v] for v in f] for f in c.facets]
        assert spec_json(text) == complex_spec_json_oracle(names, facets)

    @pytest.mark.parametrize(
        "vertices, facets",
        [
            # facets of sizes 3, 2, 1 and 2: the faces of d, e and f lie in
            # no widest facet, so their heights take the fallback
            (
                ["a", 'b"', "c\\", "d", "e", "f"],
                [["a", 'b"', "c\\"], ["c\\", "d"], ["e"], ['b"', "f"]],
            ),
            ([1, 2, 3, 4, 5], [[1, 2, 3, 4], [4, 5], [2, 5]]),
            ([7], [[7]]),
            (["\u00e9"], [["\u00e9"]]),
        ],
        ids=["mixed-str", "mixed-int", "one-vertex", "one-vertex-str"],
    )
    def test_complexes(self, vertices, facets):
        text = "vertices: %s\n" % " ".join(map(str, vertices))
        text += "".join("facet: %s\n" % " ".join(map(str, f)) for f in facets)
        assert spec_json(text) == complex_spec_json_oracle(vertices, facets)

    @pytest.mark.parametrize(
        "text, names, element, infinity",
        [
            (
                'generators: a" b\\ c \u00e9\n'
                'relation: a" + \u00e9 = inf\nrelation: b\\ + \u00e9 = inf\n',
                ['a"', "b\\", "c", "\u00e9"],
                [],
                [{0, 3}, {1, 3}],
            ),
            (
                'generators: x" y z\nrelation: x" + y = 2 z\n',
                ['x"', "y", "z"],
                [({0, 1}, {2})],
                [],
            ),
        ],
        ids=["infinity", "element"],
    )
    def test_presentations(self, text, names, element, infinity):
        """With an infinity relation no prime is empty; without one the
        empty prime comes first and prints `"generators": []`."""
        primes = brute_spectrum(len(names), element, infinity)
        assert (() in primes) == (not infinity)
        assert spec_json(text) == spec_json_oracle(names, primes, brute_heights(primes))


class TestUpwardWalk:
    """Without element relations the primes are the complements of faces, so
    p ∪ {g} is a prime for every prime p and generator g outside it (what the
    Hasse diagram's upward walk relies on), and there is one cover edge per
    face F and vertex of F, Σ_F |F| edges."""

    @staticmethod
    def check(S, primes):
        n = len(S.generator_names)
        assert [tuple(p) for p in S.primes] == primes
        family = {frozenset(p) for p in primes}
        assert all(p | {g} in family for p in family for g in range(n) if g not in p)
        assert sum(map(len, S._hasse_diagram()[0])) == sum(n - len(p) for p in primes)

    @settings(max_examples=60, deadline=None)
    @given(complexes_with_isolated_vertices())
    def test_complexes(self, c):
        faces = brute_faces(c.facets)
        primes = sorted(
            (tuple(i for i, v in enumerate(c.vertices) if v not in f) for f in faces),
            key=lambda p: (len(p), p),
        )
        for S in (spectrum_of_complex(c), compute_spec(from_simplicial(c))):
            self.check(S, primes)
            assert sum(map(len, S._hasse_diagram()[0])) == sum(map(len, faces))

    @settings(max_examples=60, deadline=None)
    @given(monomial_presentations())
    def test_monomial(self, M):
        self.check(compute_spec(M), brute_spectrum(M.generator_count, *supports(M)))

    def test_cycle_of_128_vertices(self):
        S = spectrum_of_complex(SimplicialComplex.from_facets(cycle_facets(128)))
        assert len(S.primes) == 1 + 128 + 128
        assert sum(map(len, S._hasse_diagram()[0])) == 384
        assert max(S._hasse_diagram()[1]) == 2


class TestComplexFromSupports:
    """`as_simplicial` and `radical_complex` against the maximal faces of a subset scan."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_against_maximal_subsets_avoiding_the_supports(self, data):
        """Repeated, nested, singleton and empty supports, and exponents
        above 1 for the radical, on generators named out of sorted order."""
        n = data.draw(st.integers(0, 7))
        names = tuple("x%d" % i for i in data.draw(st.permutations(range(n))))
        support = st.sets(st.integers(0, n - 1), max_size=n) if n else st.just(set())
        sups = data.draw(st.lists(support, max_size=8))
        exponent = st.integers(1, 3)
        vector = lambda s: tuple(data.draw(exponent) if i in s else 0 for i in range(n))
        squarefree = BinoidPresentation(
            names, tuple(Relation(tuple(int(i in s) for i in range(n)), None) for s in sups)
        )
        monomial = BinoidPresentation(names, tuple(Relation(vector(s), None) for s in sups))

        faces = [f for f in all_subsets(range(n)) if not any(s <= set(f) for s in sups)]
        for c in (as_simplicial(squarefree), radical_complex(monomial)):
            if not faces:  # an empty support: not even the empty face
                assert c == SimplicialComplex.void()
                continue
            covered = {i for f in faces for i in f}
            vertices = [names[i] for i in sorted(covered)]
            assert c.vertices == tuple(vertices)
            expected = brute_maximal(vertices, [[names[i] for i in f] for f in faces])
            assert set(map(frozenset, c.facets)) == expected

    def test_free_binoid_on_16_generators_is_one_simplex(self):
        c = as_simplicial(free_binoid(16))
        assert c.facets == (free_binoid(16).generator_names,)
        assert radical_complex(free_binoid(16)) == c


class TestOpenSetsAgainstDefinitions:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(complexes(7), monomial_presentations(), integral_presentations()), st.data())
    def test_cover_components_and_openness(self, obj, data):
        M = from_simplicial(obj) if isinstance(obj, SimplicialComplex) else obj
        S = compute_spec(M)
        chosen = data.draw(st.sets(st.sampled_from(S.primes)))
        sets = {p: set(p.generator_subset) for p in S.primes}
        U = {q for q in S.primes if any(sets[q] <= sets[p] for p in chosen)}
        maximal = [p for p in U if not any(sets[p] < sets[q] for q in U)]
        n = M.generator_count
        assert minimal_cover(S, U) == sorted(
            tuple(i for i in range(n) if i not in sets[p]) for p in maximal
        )
        if chosen != U:  # the chosen primes alone miss something below them
            with pytest.raises(NotOpen):
                minimal_cover(S, chosen)


class TestMakeAgainstMaximalSets:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_make_keeps_the_maximal_faces(self, data):
        """Faces repeated (also reordered), the empty face and uncovered
        vertices, on labels declared out of sorted order."""
        n = data.draw(st.integers(0, 8))
        labels = data.draw(st.permutations(range(1, n + 1)))
        face = st.lists(st.sampled_from(labels), max_size=n, unique=True) if n else st.just([])
        faces = data.draw(st.lists(face, max_size=10))
        if faces:
            repeated = data.draw(st.lists(st.sampled_from(faces), max_size=3))
            faces += [data.draw(st.permutations(f)) for f in repeated]
        c = SimplicialComplex.make(labels, faces)
        assert c.vertices == tuple(labels)
        assert set(map(frozenset, c.facets)) == brute_maximal(labels, faces)
        position = {v: i for i, v in enumerate(labels)}
        keys = [[position[v] for v in f] for f in c.facets]
        assert all(k == sorted(k) for k in keys) and keys == sorted(keys)


class TestFaceTestAgainstSubsetScan:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            complexes(),
            st.sampled_from([SimplicialComplex.void(), SimplicialComplex.empty()]),
        ),
        st.data(),
    )
    def test_faces_has_face_and_restriction(self, c, data):
        """The faces grown from the facet masks, the face test on any vertex
        order and the restriction to a vertex subset, against every subset."""
        faces = brute_faces(c.facets)
        position = {v: i for i, v in enumerate(c.vertices)}
        ordered = sorted(
            (tuple(sorted(f, key=position.get)) for f in faces),
            key=lambda f: (len(f), [position[v] for v in f]),
        )
        assert c.all_faces() == ordered
        for d in range(-2, c.dimension + 2):
            assert c.faces(d) == [f for f in ordered if len(f) == d + 1]

        for subset in all_subsets(c.vertices):
            assert c.has_face(subset) == c.has_face(subset[::-1]) == (frozenset(subset) in faces)
        if c.vertices:
            subset = data.draw(st.sampled_from(all_subsets(c.vertices)))
            shuffled = tuple(data.draw(st.permutations(subset)))
            assert c.has_face(shuffled) == (frozenset(subset) in faces)
            repeated = data.draw(st.sampled_from(c.vertices))
            assert not c.has_face(shuffled + (repeated, repeated))
            kept = data.draw(st.lists(st.sampled_from(c.vertices), unique=True))
        else:
            kept = []
        with pytest.raises(UnknownVertex):
            c.has_face((0,))

        restricted = c.restriction(kept)
        assert restricted.vertices == tuple(v for v in c.vertices if v in kept)
        assert restricted.all_faces() == [f for f in ordered if set(f) <= set(kept)]

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            complexes(),
            complexes_with_isolated_vertices(),
            st.just(SimplicialComplex.empty()),
        )
    )
    def test_faces_by_dim_keys_order_and_masks(self, c):
        """Per dimension, the faces in order of their positions, each with
        the bitmask of the facets above it."""
        position = {v: i for i, v in enumerate(c.vertices)}
        expected = {}
        for f in sorted(brute_faces(c.facets), key=lambda f: (len(f), sorted(map(position.get, f)))):
            above = sum(1 << k for k, g in enumerate(c.facets) if f <= set(g))
            expected.setdefault(len(f) - 1, {})[tuple(sorted(f, key=position.get))] = above
        got = c._faces_by_dim()
        assert list(got) == list(expected)
        for d, faces in expected.items():
            assert list(got[d].items()) == list(faces.items())


class TestCrosscutAndNerveAgainstSubsetScan:
    @settings(max_examples=60, deadline=None)
    @given(complexes(), st.data())
    def test_crosscut(self, c, data):
        faces = c.all_faces()
        listed = data.draw(st.lists(st.sampled_from(faces), max_size=7))
        cut = c.crosscut(listed)
        expected = brute_crosscut(c.facets, listed)
        assert {f for f in cut.all_faces() if f} == expected
        assert cut.vertices == (tuple(range(1, len(listed) + 1)) if expected else ())

    @settings(max_examples=60, deadline=None)
    @given(complexes(7), st.data())
    def test_nerve(self, c, data):
        M = from_simplicial(c)
        S = compute_spec(M)
        n = M.generator_count
        cover = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=n, unique=True), max_size=6)
        )
        N = nerve(S, cover)
        expected = brute_nerve(spec_tuples(S), cover)
        assert {f for f in N.all_faces() if f} == expected
        assert N.vertices == tuple(sorted({i for f in expected for i in f}))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(integral_presentations(), mixed_presentations()), st.data())
    def test_nerve_with_element_relations(self, M, data):
        """The nerve's points are the minimal primes; with element relations
        they are not the complements of facets."""
        S = compute_spec(M)
        n = M.generator_count
        cover = data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=n, unique=True), max_size=6)
        )
        N = nerve(S, cover)
        expected = brute_nerve(brute_spectrum(n, *supports(M)), cover)
        assert {f for f in N.all_faces() if f} == expected
        assert N.vertices == tuple(sorted({i for f in expected for i in f}))


class TestLinkAgainstSubsetScan:
    @settings(max_examples=80, deadline=None)
    @given(complexes(), st.data())
    def test_link(self, c, data):
        """Facets, vertices and every dimension's faces, which the link seeds
        from this complex's faces instead of closing its facets again."""
        faces = brute_faces(c.facets)
        position = {v: i for i, v in enumerate(c.vertices)}

        def key(f):
            return sorted(position[v] for v in f)

        small = sorted((f for f in faces if 1 <= len(f) <= 3), key=key)
        face = data.draw(st.permutations(list(data.draw(st.sampled_from(small)))))
        link = c.link(face)
        expected = brute_link(c.facets, face)
        maximal = [g for g in expected if not any(g < h for h in expected)]
        assert list(link.facets) == [tuple(sorted(g, key=position.get)) for g in sorted(maximal, key=key)]
        assert link.vertices == tuple(v for v in c.vertices if frozenset([v]) in expected)
        for d in range(-2, c.dimension + 2):
            sized = sorted((g for g in expected if len(g) == d + 1), key=key)
            assert link.faces(d) == [tuple(sorted(g, key=position.get)) for g in sized]
        nonfaces = [
            f for k in (1, 2, 3) for f in combinations(c.vertices, k) if frozenset(f) not in faces
        ]
        if nonfaces:
            with pytest.raises(NotAFace):
                c.link(data.draw(st.sampled_from(nonfaces)))


def cross_polytope_boundary(d):
    """Boundary of the d-cross-polytope, vertex i antipodal to i + d."""
    return [
        tuple(i + d * s for i, s in zip(range(1, d + 1), signs))
        for signs in product((0, 1), repeat=d)
    ]


def weil_pic_open(delta):
    S = compute_spec(from_simplicial(delta))
    weil = primes_of_height_at_most(S, 1) & punctured_spectrum(S)
    return pic_open_subset(delta, weil)


class TestScale:
    """Inputs whose subset scans ran for minutes; no wall-clock asserts."""

    @pytest.mark.parametrize(
        "facets",
        [cross_polytope_boundary(4), CONE_RP2_FACETS],
        ids=["cross-polytope-4", "cone-rp2"],
    )
    def test_pic_open_matches_weil_oracle(self, facets):
        groups = weil_pic_open(SimplicialComplex.from_facets(facets))
        h0, h1 = weil_pic_open_ranks(facets)
        assert [g.free_rank for g in groups[:2]] == [h0, h1]
        assert all(not g.invariant_factors for g in groups)
        assert all(g.free_rank == 0 for g in groups[2:])

    def test_spec_json_of_the_8_simplex(self, capsys, tmp_path):
        path = tmp_path / "simplex8.cplx"
        path.write_text("vertices: 1 2 3 4 5 6 7 8\nfacet: 1 2 3 4 5 6 7 8\n")
        assert main(["spec", str(path), "--json"]) == 0
        primes = json.loads(capsys.readouterr().out)["primes"]
        assert len(primes) == 256
        for prime in primes:  # height(V - F) = 8 - |F|
            face = 8 - len(prime["generators"])
            assert prime["height"] == 8 - face

    def test_pic_open_of_the_8_simplex(self):
        groups = weil_pic_open(SimplicialComplex.from_facets([tuple(range(1, 9))]))
        assert all(g.free_rank == 0 and not g.invariant_factors for g in groups)

    def test_nerve_of_the_16_cycle_is_the_cycle(self):
        cycle = SimplicialComplex.from_facets(cycle_facets(16))
        S = compute_spec(from_simplicial(cycle))
        cover = minimal_cover(S, punctured_spectrum(S))
        assert cover == [(i,) for i in range(16)]
        assert nerve(S, cover) == cycle

    def test_f_vector_of_a_2000_vertex_path(self):
        path = SimplicialComplex.from_facets([(i, i + 1) for i in range(1, 2000)])
        assert [len(path.faces(d)) for d in range(-1, 3)] == [1, 2000, 1999, 0]

    def test_f_vector_of_the_7_cross_polytope_boundary(self):
        boundary = SimplicialComplex.from_facets(cross_polytope_boundary(7))
        f_vector = [len(boundary.faces(k)) for k in range(-1, 8)]
        assert f_vector == [2 ** (k + 1) * comb(7, k + 1) for k in range(-1, 7)] + [0]

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("family", ["cycle", "path", "star"])
    def test_spec_and_pic_open_of_graphs(self, capsys, tmp_path, family, n):
        """One prime per face of a graph on n vertices, and Pic of its Weil
        locus, which is Pic itself: Z^n on C_n, Z^(n-2) on a path or a star."""
        facets = {"cycle": cycle_facets, "path": path_facets, "star": star_facets}[family](n)
        path = tmp_path / "graph.cplx"
        lines = ["vertices: " + " ".join(map(str, range(1, n + 1)))]
        path.write_text("\n".join(lines + ["facet: %d %d" % f for f in facets]) + "\n")
        assert main(["spec", str(path), "--json"]) == 0
        heights = [p["height"] for p in json.loads(capsys.readouterr().out)["primes"]]
        assert len(heights) == (2 * n + 1 if family == "cycle" else 2 * n)
        assert sorted(heights) == [0] * len(facets) + [1] * n + [2]
        assert main(["pic-open", str(path)]) == 0
        rank = n if family == "cycle" else n - 2
        assert capsys.readouterr().out == "H^0 = 0, H^1 = Z^%d\n" % rank

    def test_faces_of_the_16_cycle(self):
        M = from_simplicial(SimplicialComplex.from_facets(cycle_facets(16)))
        assert len(M.relations) == 16 * 15 // 2 - 16
        assert len(compute_spec(M).primes) == len(brute_faces(cycle_facets(16))) == 33
