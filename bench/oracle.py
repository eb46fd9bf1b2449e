"""Expected answers, computed without importing the package under test.

Groups are pairs (free_rank, invariant_factors).  Simplicial complexes are
lists of facets over vertex positions 0..n-1; labels only enter when an
answer is rendered as the command line prints it.
"""

import json
from itertools import combinations
from math import gcd

ZERO = (0, ())


def free(rank):
    return (rank, ())


def torsion(*factors):
    return (0, tuple(f for f in factors if f > 1))


# ---------------------------------------------------------------------------
# integer linear algebra


def _chain(diagonal):
    """Invariant factors (> 1, divisibility chain) of the sum of Z/d."""
    ds = [abs(d) for d in diagonal if abs(d) > 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(d for d in ds if d > 1)


def diagonal(rows):
    """Nonzero diagonal of a diagonal form of a matrix given as sparse rows.

    Each row is a dict column -> value.  Pivots are entries of smallest
    absolute value; remainders left by a pivot become the next pivots.
    """
    rows = [dict(r) for r in rows if r]
    out = []
    while rows:
        _, i, j = min((abs(x), i, j) for i, r in enumerate(rows) for j, x in r.items())
        pivot_row = rows[i]
        p = pivot_row[j]
        clean = True
        for k, r in enumerate(rows):
            if k == i or j not in r:
                continue
            q = r[j] // p
            for c, x in pivot_row.items():
                v = r.get(c, 0) - q * x
                if v:
                    r[c] = v
                else:
                    r.pop(c, None)
            clean = clean and j not in r
        if clean:
            rest = {c: x % p for c, x in pivot_row.items() if c != j and x % p}
            if not rest:
                out.append(p)
                del rows[i]
            else:
                rest[j] = p  # column operations leave remainders in the pivot row
                rows[i] = rest
        rows = [r for r in rows if r]
    return out


# ---------------------------------------------------------------------------
# simplicial complexes


def close(facets):
    """Every face (the empty one included) of the complex with these facets."""
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(len(f) + 1):
            faces.update(combinations(f, r))
    return faces


def cohomology(facets, reduced=False):
    """H^j with integer coefficients, from degree -1 (reduced) or 0 to the dimension."""
    by_size = {}
    for f in close(facets):
        by_size.setdefault(len(f), []).append(f)
    dim = max(len(f) for f in facets) - 1
    sizes = list(range(0 if reduced else 1, dim + 2))
    diagonals = {}
    for s in sizes[:-1]:
        index = {f: i for i, f in enumerate(by_size[s])}
        rows = []
        for g in by_size[s + 1]:
            rows.append({index[g[:l] + g[l + 1:]]: (-1) ** l for l in range(len(g))})
        diagonals[s] = diagonal(rows)
    out = []
    for s in sizes:
        here = len(by_size[s])
        rank_out = len(diagonals.get(s, ()))
        into = diagonals.get(s - 1, ())
        out.append((here - rank_out - len(into), _chain(into)))
    return out


def link(facets, v):
    return [tuple(x for x in f if x != v) for f in facets if v in f]


def local_picard(facets, n):
    """Link formula: H^j = sum over vertices of reduced H^(j-1) of the link."""
    dim = max(len(f) for f in facets) - 1
    free_ranks = [0] * (dim + 1)
    factors = [[] for _ in range(dim + 1)]
    for v in range(n):
        for j, (r, t) in enumerate(cohomology(link(facets, v), reduced=True)):
            if j <= dim:
                free_ranks[j] += r
                factors[j].extend(t)
    return [(r, _chain(t)) for r, t in zip(free_ranks, factors)]


def pic_open_weil(facets, n):
    """Unit-sheaf cohomology of the punctured height-<=1 locus of a simplicial spectrum.

    Points are the nonempty faces F whose facets all have at most |F| + 1
    vertices; the sheaf splits over the vertices v into extensions by zero
    from the faces containing v.  So H^j = sum over v of the relative
    cohomology of (K, K_v), K the order complex of the locus and K_v the
    part avoiding v.  Chains in the locus have at most two elements, so K
    is a graph and the relative groups are free.
    """
    faces = [f for f in close(facets) if f]
    top = {f: max(len(g) for g in facets if set(f) <= set(g)) for f in faces}
    locus = {f for f in faces if top[f] - len(f) <= 1}
    edges = [(f, g) for g in locus for f in locus if len(f) + 1 == len(g) and set(f) < set(g)]
    h0 = h1 = 0
    for v in range(n):
        outside = {f for f in locus if v not in f}
        parent = {f: f for f in locus}

        def find(f):
            while parent[f] != f:
                parent[f] = parent[parent[f]]
                f = parent[f]
            return f

        for f, g in edges:
            parent[find(f)] = find(g)
        touching = {find(f) for f in outside}
        components = {find(f) for f in locus} - touching
        inner = len(locus) - len(outside)
        rank = inner - len(components)
        h0 += len(components)
        h1 += sum(1 for f, g in edges if not (f in outside and g in outside)) - rank
    return [free(h0), free(h1)]


def minimal_nonfaces(facets, n):
    faces = close(facets)
    out = []
    for r in range(1, n + 1):
        for s in combinations(range(n), r):
            if s not in faces and all(s[:l] + s[l + 1:] in faces for l in range(r)):
                out.append(s)
    return out


def spectrum_of_complex(facets, n):
    """Primes as sorted generator-position tuples, each with its height."""
    primes = []
    for f in close(facets):
        top = max(len(g) for g in facets if set(f) <= set(g))
        primes.append((tuple(i for i in range(n) if i not in f), top - len(f)))
    return sorted(primes, key=lambda p: (len(p[0]), p[0]))


# ---------------------------------------------------------------------------
# integral presentations


def spectrum_of_relations(n, relations):
    """Primes of (n generators | element relations given as support pairs)."""
    primes = []
    for r in range(n + 1):
        for s in combinations(range(n), r):
            chosen = set(s)
            if all(bool(chosen & lhs) == bool(chosen & rhs) for lhs, rhs in relations):
                primes.append(s)
    return primes


def cover_of_punctured(n, primes):
    """Supports of the basic opens, one per maximal prime short of everything."""
    punctured = [p for p in primes if len(p) < n]
    maximal = [p for p in punctured if not any(set(p) < set(q) for q in punctured)]
    return sorted(tuple(i for i in range(n) if i not in p) for p in maximal)


# ---------------------------------------------------------------------------
# rendering, as the command line prints


def group_text(g):
    rank, factors = g
    parts = ["Z"] if rank == 1 else ["Z^%d" % rank] if rank > 1 else []
    parts += ["Z/%d" % d for d in factors]
    return " + ".join(parts) if parts else "0"


def constant_text(here, following):
    """H^j with coefficients in the units K* of a field, by universal coefficients."""
    rank = here[0]
    parts = ["K*"] if rank == 1 else ["(K*)^%d" % rank] if rank > 1 else []
    parts += ["K*/%d" % d for d in here[1]]
    parts += ["K*[%d]" % b for b in following[1]]
    return " + ".join(parts) if parts else "0"


def degrees_text(entries):
    shown = list(entries)
    while len(shown) < 2:
        shown.append("0")
    while len(shown) > 2 and shown[-1] == "0":
        shown.pop()
    return ", ".join("H^%d = %s" % (j, t) for j, t in enumerate(shown)) + "\n"


def groups_text(groups):
    return degrees_text([group_text(g) for g in groups])


def sr_entries(ordinary, integer):
    """Per degree: the K* part from ordinary cohomology, then the integer part."""
    entries = []
    for j, (here, part) in enumerate(zip(ordinary, integer)):
        following = ordinary[j + 1] if j + 1 < len(ordinary) else ZERO
        pieces = [t for t in (constant_text(here, following), group_text(part)) if t != "0"]
        entries.append(" + ".join(pieces) if pieces else "0")
    return entries


def complex_text(labels, facets):
    lines = ["vertices: " + " ".join(str(x) for x in labels)]
    for f in sorted(tuple(sorted(f)) for f in facets):
        lines.append("facet: " + " ".join(str(labels[i]) for i in f))
    return "\n".join(lines) + "\n"


def prime_text(names, prime):
    return "<" + ",".join(str(names[i]) for i in prime) + ">" if prime else "<inf>"


def spec_text(names, primes):
    return "".join(prime_text(names, p) + "\n" for p in primes)


def spec_json(names, primes_with_height):
    payload = {
        "generators": list(names),
        "primes": [
            {"generators": [names[i] for i in p], "height": h} for p, h in primes_with_height
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dot_text(names, primes):
    """Hasse diagram of a spectrum whose covers add exactly one generator."""
    index = {p: i for i, p in enumerate(primes)}
    lines = ["digraph spec {", "  rankdir=BT;"]
    lines += ['  p%d [label="%s"];' % (i, prime_text(names, p)) for i, p in enumerate(primes)]
    edges = []
    for p in primes:
        for g in range(len(names)):
            q = tuple(sorted(p + (g,))) if g not in p else None
            if q in index:
                edges.append((index[p], index[q]))
    lines += ["  p%d -> p%d;" % e for e in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def nerve_text(names, supports, nerve_facets):
    comments = "".join(
        "# %d: D(%s)\n" % (i, ",".join(str(names[g]) for g in s))
        for i, s in enumerate(supports, start=1)
    )
    return comments + complex_text(list(range(1, len(supports) + 1)), nerve_facets)
