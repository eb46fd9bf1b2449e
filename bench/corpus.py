"""Seeded input corpora and the expected answer of every case.

A case runs one command line verb on one generated file (or, for the Čech
route, which has no verb, the library call on the parsed file).  The seed
relabels, reorders and rewrites the inputs and draws the random complexes;
the families and their sizes are fixed, so every seed costs about the
same and meets the same known defects.
"""

import os
import random
from itertools import product

import oracle as O

# 6-vertex triangulation of the real projective plane, vertices 0..5
RP2 = [(0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
       (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5)]

# cap, in seconds, of the cases that the seed never finishes
HANG_CAP_S = 4.0

_WORKLOADS = {}


def workload(fn):
    _WORKLOADS[fn.__name__.replace("_", "-")] = fn
    return fn


def names():
    return sorted(_WORKLOADS)


class Corpus:
    """Writes input files into one directory and collects the cases on them."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng
        self.cases = []
        os.makedirs(directory, exist_ok=True)

    def _write(self, name, text):
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def add(self, case_id, argv, stdout, tolerated=None, cap=None):
        """A command line case that should exit 0 with this stdout.  `tolerated`
        is a known seed defect: (exit code, stdout or None for any) that
        counts as failed but not wrong.  `cap` replaces the default per-case
        cap, in seconds, for a case that the seed never finishes."""
        self.cases.append({"id": case_id, "argv": argv, "stdout": stdout,
                           "tolerated": tolerated, "cap": cap})

    def add_cech(self, case_id, path, groups):
        self.cases.append({"id": case_id, "cech": path, "groups": groups,
                           "tolerated": None, "cap": None})

    # -- simplicial inputs ---------------------------------------------------

    def complex(self, name, facets, n):
        """Relabel vertices 0..n-1 and write the file; return labels and facets.

        The labels are distinct integers declared in a seeded order; the
        returned facets are over positions in that declared order.
        """
        labels = self.rng.sample(range(1, 100), n)
        where = list(range(n))
        self.rng.shuffle(where)
        facets = [tuple(sorted(where[v] for v in f)) for f in facets]
        lines = ["vertices: " + " ".join(map(str, labels))]
        for f in self.rng.sample(facets, len(facets)):
            shown = [labels[v] for v in f]
            self.rng.shuffle(shown)
            lines.append("facet: " + " ".join(map(str, shown)))
        path = self._write(name + ".cplx", "\n".join(lines) + "\n")
        return path, labels, facets

    def monomial_ideal(self, name, labels, facets):
        """The Stanley-Reisner ideal, one generator squared at the seed's choice."""
        n = len(labels)
        var = ["v%d" % x for x in labels]
        gens = O.minimal_nonfaces(facets, n)
        squared = self.rng.randrange(len(gens)) if gens and self.rng.random() < 0.5 else None
        lines = ["variables: " + " ".join(var)]
        for k, g in enumerate(gens):
            terms = [var[i] for i in g]
            if k == squared:
                terms[0] += "^2"
            lines.append("gen: " + " ".join(terms))
        return self._write(name + ".mono", "\n".join(lines) + "\n"), var, squared is None


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _star(n):
    return [(0, i) for i in range(1, n)]


def _cross(d):
    return [tuple(2 * i + c[i] for i in range(d)) for c in product((0, 1), repeat=d)]


def _random_complex(rng, n, dim, count, f_vector):
    """Random facets until every vertex is used and the face counts match.

    Fixing the f-vector fixes the ranks of the Čech complex, so every seed
    pays about the same for these inputs.
    """
    while True:
        facets = {tuple(sorted(rng.sample(range(n), dim + 1))) for _ in range(count)}
        sizes = [len(f) for f in O.close(facets)]
        if len(facets) == count and tuple(sizes.count(k) for k in range(1, dim + 2)) == f_vector:
            return sorted(facets)


@workload
def highdim_cech(c):
    """Few vertices, high dimension: the Čech route and integer elimination."""
    zero = lambda k: [O.ZERO] * k
    inputs = []
    for d in (3, 4, 5):  # boundary of the d-cross-polytope, a (d-1)-sphere
        inputs.append(("cross%d" % d, _cross(d), 2 * d,
                       zero(d - 1) + [O.free(2 * d)],
                       [O.free(1)] + zero(d - 2) + [O.free(1)]))
    for n in (5, 6, 7):  # full simplex on n vertices
        inputs.append(("simplex%d" % n, [tuple(range(n))], n,
                       zero(n), [O.free(1)] + zero(n - 1)))
    inputs.append(("rp2", RP2, 6, zero(2) + [O.free(6)],
                   [O.free(1), O.ZERO, O.torsion(2)]))
    inputs.append(("cone-rp2", [f + (6,) for f in RP2], 7,
                   zero(3) + [O.torsion(2)], [O.free(1)] + zero(3)))
    shapes = ((8, 3, 6, (8, 21, 20, 6)), (9, 4, 3, (9, 25, 29, 15, 3)))
    for k, (n, dim, count, f_vector) in enumerate(shapes * 6):
        facets = _random_complex(c.rng, n, dim, count, f_vector)
        inputs.append(("random%d" % k, facets, n, O.local_picard(facets, n),
                       O.cohomology(facets)))

    # pic-open only where the cover is small; on cross4 and cone-rp2 it is
    # kept, with a short cap, although the seed enumerates 2^32 and 2^25
    # crosscut subsets (cone-rp2 ran 235 s)
    pic_open = {"cross3", "rp2", "simplex5", "simplex6"}
    hang = {"cross4", "cone-rp2"}
    for name, facets, n, picard, ordinary in inputs:
        path, labels, facets = c.complex(name, facets, n)
        c.add_cech(name + ":cech", path, picard)
        c.add(name + ":picard", ["picard", path], O.groups_text(picard))
        c.add(name + ":cohomology", ["cohomology", path], O.groups_text(ordinary))
        entries = O.sr_entries(ordinary, picard)
        c.add(name + ":sr-cohomology", ["sr-cohomology", path], O.degrees_text(entries))
        mono, var, radical = c.monomial_ideal(name, labels, facets)
        lines = ["facets: " + " | ".join(
            " ".join(var[i] for i in f) for f in sorted(facets))]
        lines.append("radical: " + ("yes" if radical else "no"))
        lines += ["H^%d = %s" % (j, e) for j, e in enumerate(entries)]
        lines.append("nonvanishing H^1: " + ("yes" if len(entries) > 1 and entries[1] != "0" else "no"))
        lines.append("unipotent part: NOT COMPUTED")
        c.add(name + ":monomial-report", ["monomial-report", mono], "\n".join(lines) + "\n")
        if name in pic_open | hang:
            c.add(name + ":pic-open", ["pic-open", path],
                  O.groups_text(O.pic_open_weil(facets, n)),
                  cap=HANG_CAP_S if name in hang else None)


@workload
def wide_spectrum(c):
    """Many vertices, low dimension: 2^n spectrum scans, heights, crosscuts."""
    inputs = [("cycle%d" % n, _ring(n), n, n) for n in (10, 13, 16)]
    inputs += [("path%d" % n, _path(n), n, n - 2) for n in (11, 14)]
    inputs += [("star%d" % n, _star(n), n, n - 2) for n in (12, 15)]
    inputs += [("simplex%d" % n, [tuple(range(n))], n, None) for n in (6, 7, 8)]
    for name, facets, n, h1 in inputs:
        path, labels, facets = c.complex(name, facets, n)
        primes = O.spectrum_of_complex(facets, n)
        bare = [p for p, _ in primes]
        c.add(name + ":spec", ["spec", path], O.spec_text(labels, bare))
        c.add(name + ":spec-json", ["spec", path, "--json"], O.spec_json(labels, primes))
        c.add(name + ":dot", ["dot", path], O.dot_text(labels, bare))
        c.add(name + ":nerve", ["nerve", path],
              O.nerve_text(labels, [(i,) for i in range(n)], facets))
        v = c.rng.randrange(n)
        around = O.link(facets, v)
        keep = sorted({u for f in around for u in f})
        c.add(name + ":link", ["link", path, str(labels[v])],
              O.complex_text([labels[u] for u in keep],
                             [[keep.index(u) for u in f] for f in around]))
        if h1 is not None:  # a graph: Pic of the Weil locus is Pic itself
            groups = [O.ZERO, O.free(h1)]
            c.add(name + ":picard", ["picard", path], O.groups_text(groups))
            c.add(name + ":pic-open", ["pic-open", path], O.groups_text(groups))


@workload
def integral_units(c):
    """Integral presentations: bounded unit search, tiny SNFs, cone facets."""
    # x+y=nz on its own for two n in 1..5, for 6 and for two n in 7..12, drawn
    # by the seed, so each draw meets the same seed defects; smashed with one
    # free generator for every n in 1..12
    drawn = c.rng.sample(range(1, 6), 2) + [6] + c.rng.sample(range(7, 13), 2)
    # 2x=3y comes first: set-up warms up on the first case of each verb
    families = [("2x=3y", 2, [((0,), (2,)), ((1,), (3,))],
                 (O.free(1), O.ZERO), O.ZERO, (0, 1, 2))]
    for n in range(1, 13):
        families.append(("x+y=%dz" % n, 3, [((0, 1), (1, 1)), ((2,), (n,))],
                         (O.ZERO, O.torsion(n)), O.torsion(n), (0, 1) if n in drawn else (1,)))
    # smashed once, x+z=y+w runs for the longest case of all; smashed twice
    # it runs much longer
    families.append(("x+z=y+w", 4, [((0, 2), (1, 1)), ((1, 3), (1, 1))],
                     (O.ZERO, O.free(1)), O.free(1), (0, 1)))
    for k in (1, 2, 3):  # up to N^3; N^4 runs for seconds
        families.append(("free%d" % k, k, [],
                         (O.free(1) if k == 1 else O.ZERO, O.ZERO), O.ZERO, range(4 - k)))
    for family, rank, relation, picard, cl, extras in families:
        for extra in extras:
            _presentation(c, family, rank, relation, picard, cl, extra)


def _presentation(c, family, rank, relation, picard, cl, extra):
    """Write `family` smashed with `extra` free generators and add its cases.

    The seed picks the generator names, their declared order, the side and
    term order of the relation.
    """
    name = family + ("+%d" % extra if extra else "")
    total = rank + extra
    letters = c.rng.sample("abcdefghkmnpqrsuvwxyz", total)
    order = list(range(total))
    c.rng.shuffle(order)  # declared position of each generator
    declared = [None] * total
    for g, pos in enumerate(order):
        declared[pos] = letters[g]
    text = "generators: " + " ".join(declared) + "\n"
    relations = []
    if relation:
        sides = [[(order[g], k) for g, k in zip(gens, coefs)] for gens, coefs in relation]
        c.rng.shuffle(sides)
        relations.append(tuple(frozenset(p for p, _ in side) for side in sides))
        shown = []
        for side in sides:
            terms = ["%s%s" % ("" if k == 1 else "%d " % k, declared[p]) for p, k in side]
            c.rng.shuffle(terms)
            shown.append(" + ".join(terms))
        text += "relation: %s = %s\n" % tuple(shown)
    path = c._write(name + ".binoid", text)

    if extra:  # smashing with a free generator kills H^0 and H^1
        picard = (O.ZERO, O.ZERO)
    tolerated = None
    if family == "x+y=6z":
        tolerated = (4, None)  # the unit search reports itself incomplete
    elif family.startswith("x+y=") and not extra and int(family[4:-1]) >= 7:
        tolerated = (0, "H^0 = 0, H^1 = Z\n")  # the search misses the torsion
    c.add(name + ":picard-general", ["picard-general", path], O.groups_text(list(picard)),
          tolerated=tolerated)
    c.add(name + ":class-group", ["class-group", path], O.group_text(cl) + "\n")
    primes = O.spectrum_of_relations(total, relations)
    c.add(name + ":spec", ["spec", path], O.spec_text(declared, primes))
    supports = O.cover_of_punctured(total, primes)
    c.add(name + ":nerve", ["nerve", path],
          O.nerve_text(declared, supports, [tuple(range(len(supports)))]))
    c.add(name + ":cohomology", ["cohomology", path], "H^0 = Z, H^1 = 0\n")


def build(name, directory, seed):
    """The case list of one workload, its files written under `directory`.

    Cases with their own cap come last, so that the process's peak memory
    can be read before any of them has run.
    """
    c = Corpus(directory, random.Random("%s:%d" % (name, seed)))
    _WORKLOADS[name](c)
    return sorted(c.cases, key=lambda case: case["cap"] is not None)
