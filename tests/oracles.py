"""Independent brute-force oracles used to freeze expected test values.

Everything in this file is deliberately written without importing the
package under test: a second Smith normal form with naive first-nonzero
pivoting, minor-gcd invariant factors, fraction-free determinants,
mod-p linear algebra, and small random object generators.
"""

import itertools
import math
import random


# ---------------------------------------------------------------------------
# integer matrices as lists of lists


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if A and B:
        assert len(A[0]) == len(B)
    inner = len(B)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        out.append([sum(row[k] * B[k][j] for k in range(inner)) for j in range(cols)])
    return out


def det_int(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd_invariant_factors(rows):
    """Invariant factors via gcds of k x k minors.  Exponential; small inputs only."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    diag = []
    prev_gcd = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        diag.append(g // prev_gcd)
        prev_gcd = g
    return diag


# ---------------------------------------------------------------------------
# a second, naive Smith normal form (always picks the first nonzero pivot)


def naive_snf(rows, cols=None):
    """Return (U, S, V) with U*A*V = S, S diagonal with divisibility chain.

    Uses first-nonzero pivoting so it shares no pivot strategy with the
    implementation under test.
    """
    m = len(rows)
    n = len(rows[0]) if m else (cols or 0)
    S = [list(r) for r in rows]
    U = identity_rows(m)
    V = identity_rows(n)

    def row_op(dst, src, q):
        for j in range(n):
            S[dst][j] += q * S[src][j]
        for j in range(m):
            U[dst][j] += q * U[src][j]

    def col_op(dst, src, q):
        for i in range(m):
            S[i][dst] += q * S[i][src]
        for i in range(n):
            V[i][dst] += q * V[i][src]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, m):
                q = S[i][t] // S[t][t]
                if q:
                    row_op(i, t, -q)
            left = [i for i in range(t + 1, m) if S[i][t] != 0]
            if left:
                swap_rows(t, left[0])
                continue
            for j in range(t + 1, n):
                q = S[t][j] // S[t][t]
                if q:
                    col_op(j, t, -q)
            left = [j for j in range(t + 1, n) if S[t][j] != 0]
            if left:
                swap_cols(t, left[0])
                continue
            break
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % S[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, 1)
            continue
        if S[t][t] < 0:
            for j in range(n):
                S[t][j] = -S[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1
    return U, S, V


def naive_diagonal(rows, cols=None):
    m = len(rows)
    n = len(rows[0]) if m else (cols or 0)
    _, S, _ = naive_snf(rows, cols)
    return [S[i][i] for i in range(min(m, n))]


def naive_cokernel(rows, cols=None):
    """(free_rank, invariant factors > 1) of Z^rows / column span."""
    m = len(rows)
    diag = naive_diagonal(rows, cols)
    nonzero = [d for d in diag if d != 0]
    return m - len(nonzero), tuple(d for d in nonzero if d > 1)


def same_column_lattice(A, B):
    """Whether the columns of A and of B span the same subgroup of Z^m.

    A and B are lists of the same m rows.  Both spans lie in the span of
    [A | B], and a sublattice with the rank and invariant factors of a
    lattice containing it is all of it, so the spans agree exactly when
    A, B and [A | B] have the same nonzero invariant factors.
    """
    joined = [list(a) + list(b) for a, b in zip(A, B)]
    factors = [
        sorted(abs(d) for d in naive_diagonal(rows) if d) for rows in (A, B, joined)
    ]
    return factors[0] == factors[1] == factors[2]


def naive_complex_cohomology(d_in, d_out, middle_rank):
    """(free_rank, factors) of ker(d_out)/im(d_in) at the middle group Z^middle_rank.

    d_in is a list of rows (middle_rank x a), d_out (c x middle_rank); either
    may be [] meaning a zero map.
    """
    b = middle_rank
    if b == 0:
        return 0, ()
    if d_out:
        _, S, V = naive_snf(d_out)
        c = len(d_out)
        kernel_cols = [j for j in range(b) if j >= min(c, b) or S[j][j] == 0]
    else:
        V = identity_rows(b)
        kernel_cols = list(range(b))
    kernel_basis = [[V[i][j] for j in kernel_cols] for i in range(b)]
    k = len(kernel_cols)
    if not d_in:
        return k, ()
    # express im(d_in) in the kernel basis: solve kernel_basis * X = d_in,
    # using that the basis columns are part of a basis of Z^b
    a = len(d_in[0])
    U2, S2, V2 = naive_snf(kernel_basis)
    Ud = mat_mul(U2, d_in)
    Z = [[0] * a for _ in range(k)]
    for i in range(b):
        s = S2[i][i] if i < k else 0
        for j in range(a):
            if s != 0:
                assert Ud[i][j] % s == 0, "image not inside kernel"
                Z[i][j] = Ud[i][j] // s
            else:
                assert Ud[i][j] == 0, "image not inside kernel"
    X = mat_mul(V2, Z)
    return naive_cokernel(X, cols=a)


# ---------------------------------------------------------------------------
# modular cochain cohomology


def rank_mod_p(rows, p):
    """Rank over F_p by Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = None
        for i in range(rank, m):
            if a[i][col] % p:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def modp_cohomology_dims(ranks, diffs, p):
    """Dimensions of H^j of a cochain complex with F_p coefficients.

    ranks: list of cochain group ranks; diffs[j]: matrix (ranks[j+1] x ranks[j]).
    """
    dims = []
    for j, rank in enumerate(ranks):
        d_out = diffs[j] if j < len(diffs) else []
        d_in = diffs[j - 1] if j > 0 else []
        r_out = rank_mod_p(d_out, p) if d_out else 0
        r_in = rank_mod_p(d_in, p) if d_in else 0
        dims.append(rank - r_out - r_in)
    return dims


def modm_image_order(rows, m, cols=None):
    """Order of the image of (matrix mod m) as a map of (Z/m)-modules."""
    if not rows:
        return 1
    order = 1
    for d in naive_diagonal(rows, cols):
        order *= m // math.gcd(d, m)
    return order


def modm_cohomology_orders(ranks, diffs, m):
    """Orders of H^j with Z/m coefficients, via |ker| = m^rank / |im|."""
    orders = []
    for j, rank in enumerate(ranks):
        d_out = diffs[j] if j < len(diffs) else []
        d_in = diffs[j - 1] if j > 0 else []
        im_out = modm_image_order(d_out, m, cols=rank)
        im_in = modm_image_order(d_in, m)
        ker = m ** rank // im_out
        assert ker % im_in == 0
        orders.append(ker // im_in)
    return orders


# ---------------------------------------------------------------------------
# random generators (test-side)


def random_unimodular(rng, size, ops=12):
    """A random unimodular matrix together with its exact inverse."""
    T = identity_rows(size)
    Tinv = identity_rows(size)
    for _ in range(ops):
        i, j = rng.sample(range(size), 2) if size >= 2 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        if q == 0:
            continue
        for col in range(size):
            T[i][col] += q * T[j][col]
        for row in range(size):
            Tinv[row][j] -= q * Tinv[row][i]
    return T, Tinv


def random_zero_composition(rng, a, b, c, split):
    """Random pair (d_in, d_out) with d_out * d_in = 0 exactly.

    d_in lands in the first `split` coordinates of a twisted Z^b,
    d_out only reads the remaining ones.
    """
    T, Tinv = random_unimodular(rng, b)
    D1 = [[rng.randint(-3, 3) if i < split else 0 for _ in range(a)] for i in range(b)]
    D2 = [[rng.randint(-3, 3) if j >= split else 0 for j in range(b)] for _ in range(c)]
    d_in = mat_mul(T, D1)
    d_out = mat_mul(D2, Tinv)
    assert all(all(x == 0 for x in row) for row in mat_mul(d_out, d_in))
    return d_in, d_out


def random_cochain_complex(rng, length, max_pieces=3, multipliers=(0, 1, -1, 2, 3)):
    """A random cochain complex Z^r_0 -> ... -> Z^r_(length-1) with known summands.

    It is a direct sum of elementary complexes, up to max_pieces of them
    starting in each degree j: Z alone in degree j (multiplier None), or
    Z --m--> Z from degree j to j + 1 with m drawn from `multipliers`.
    Each group is then conjugated by a random unimodular T_j, so
    d_j = T_(j+1) * D_j * T_j^-1 hides the summands but still composes to
    zero.  Returns (ranks, diffs, pieces): diffs[j] is a list of rows
    (r_(j+1) x r_j) and pieces the (degree, multiplier) of each summand.
    """
    pieces = []
    for j in range(length):
        for _ in range(rng.randint(0, max_pieces)):
            lone = j + 1 == length or rng.random() < 0.2
            pieces.append((j, None if lone else rng.choice(multipliers)))
    ranks = [0] * length
    ends = []
    for j, m in pieces:
        ends.append((ranks[j], None if m is None else ranks[j + 1]))
        ranks[j] += 1
        if m is not None:
            ranks[j + 1] += 1
    D = [[[0] * ranks[j] for _ in range(ranks[j + 1])] for j in range(length - 1)]
    for (j, m), (source, target) in zip(pieces, ends):
        if m is not None:
            D[j][target][source] = m
    T = [random_unimodular(rng, r) for r in ranks]
    diffs = [mat_mul(mat_mul(T[j + 1][0], D[j]), T[j][1]) for j in range(length - 1)]
    return ranks, diffs, pieces


def random_facets(rng, max_vertices=7):
    """Random facet list on vertices 1..n; includes low-dimensional pieces."""
    n = rng.randint(1, max_vertices)
    verts = list(range(1, n + 1))
    count = rng.randint(1, n + 2)
    facets = []
    for _ in range(count):
        size = rng.randint(1, min(n, 4))
        facets.append(tuple(sorted(rng.sample(verts, size))))
    return facets


def make_rng(seed):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# poset helpers


def brute_cover_edges(primes):
    """Covering pairs (p, q) of a family of sets ordered by inclusion."""
    primes = list(primes)
    covers = []
    for p, q in itertools.permutations(primes, 2):
        if p < q and not any(p < r < q for r in primes):
            covers.append((p, q))
    return covers


# ---------------------------------------------------------------------------
# spectra, faces, crosscuts and nerves by scanning every subset


def all_subsets(items):
    """Every subset of a sequence as a tuple, by size then lexicographically."""
    items = list(items)
    return [c for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


def brute_spectrum(n, element, infinity):
    """Primes of a presentation on generators 0..n-1, by testing all 2^n subsets.

    `element` lists (lhs support, rhs support) pairs and `infinity` the
    supports of the relations with ∞ on the right.  A subset is prime when
    it meets both or neither side of every element relation and meets every
    infinity support.  Returned as sorted tuples, by size then
    lexicographically.
    """
    primes = []
    for c in all_subsets(range(n)):
        s = set(c)
        if all(bool(s & set(l)) == bool(s & set(r)) for l, r in element) and all(
            s & set(f) for f in infinity
        ):
            primes.append(c)
    return primes


def brute_faces(facets):
    """Every face of the complex spanned by the facets, as frozensets."""
    return {frozenset(c) for f in facets for c in all_subsets(f)}


def brute_link(facets, face):
    """The faces G disjoint from `face` with G ∪ face a face, as frozensets."""
    face = frozenset(face)
    return {g - face for g in brute_faces(facets) if face <= g}


def brute_minimal_nonfaces(vertices, facets):
    """Minimal non-faces with at least two vertices, as tuples of positions.

    Ordered by size, then lexicographically in the positions.
    """
    faces = brute_faces(facets)
    out = []
    for c in all_subsets(range(len(vertices))):
        s = frozenset(vertices[i] for i in c)
        if len(c) >= 2 and s not in faces and all(s - {v} in faces for v in s):
            out.append(c)
    return out


def brute_maximal(vertices, faces):
    """The maximal sets among the faces and the singletons of the vertices
    no face holds, as frozensets."""
    sets = {frozenset(f) for f in faces}
    covered = set().union(*sets)
    sets |= {frozenset([v]) for v in vertices if v not in covered}
    return {s for s in sets if not any(s < t for t in sets)}


def coordinate_cover_cech(vertices, facets):
    """The Čech complex of the unit sheaf on the coordinate cover, by definition.

    Degree j has one Z per pair (F, v), F a j-face and v in F; faces are
    tuples in the order of `vertices`, taken in lexicographic order of
    their positions, and v runs through F in order.  The differential into
    degree j + 1 has (-1)^l at row (F, v) and column (F minus F[l], v) for
    every l with F[l] != v.  Returns the labels per degree and the
    differentials as lists of rows; uncovered vertices are 0-faces.
    """
    position = {v: i for i, v in enumerate(vertices)}
    key = lambda f: [position[v] for v in f]
    faces = brute_faces(list(facets) + [(v,) for v in vertices]) - {frozenset()}
    top = max(map(len, faces))
    labels = [
        [(F, v) for F in sorted((tuple(sorted(f, key=position.get)) for f in faces if len(f) == k),
                                key=key)
         for v in F]
        for k in range(1, top + 1)
    ]
    diffs = []
    for source, target in zip(labels, labels[1:]):
        column = {label: c for c, label in enumerate(source)}
        rows = []
        for F, v in target:
            row = [0] * len(source)
            for l, u in enumerate(F):
                if u != v:
                    row[column[(F[:l] + F[l + 1 :], v)]] = (-1) ** l
            rows.append(row)
        diffs.append(rows)
    return labels, diffs


def brute_crosscut(facets, listed):
    """Nonempty 1-based index sets of `listed` whose union is a face."""
    faces = brute_faces(facets)
    return {
        c
        for c in all_subsets(range(1, len(listed) + 1))
        if c and frozenset(v for i in c for v in listed[i - 1]) in faces
    }


def basic_open(primes, support):
    """The open set D(support): the primes avoiding every index in the support."""
    avoid = set(support)
    return {p for p in primes if avoid.isdisjoint(p)}


def brute_nerve(primes, cover):
    """Nonempty 1-based index sets of `cover` whose opens D(support) meet."""
    opens = [basic_open(primes, sup) for sup in cover]
    return {
        c
        for c in all_subsets(range(1, len(cover) + 1))
        if c and set.intersection(*(opens[i - 1] for i in c))
    }


def brute_heights(primes):
    """Length of the longest chain strictly below each set, by recursion."""
    sets = [frozenset(p) for p in primes]
    memo = {}

    def h(p):
        if p not in memo:
            memo[p] = max((h(q) + 1 for q in sets if q < p), default=0)
        return memo[p]

    return {tuple(sorted(p)): h(p) for p in sets}


def weil_pic_open_ranks(facets):
    """Free ranks of H^0 and H^1 of the unit sheaf on the punctured height-<=1 locus.

    The locus of a simplicial spectrum is the set of nonempty faces F with
    every facet through F of size at most |F| + 1.  The unit sheaf splits
    over the vertices v into the extension by zero from the faces
    containing v, so H^j is the sum over v of the cohomology of the order
    complex K of the locus relative to its part K_v of faces avoiding v.
    The locus has no chain of three faces, so K is a graph: relative H^0
    counts the components of K missing K_v, and relative H^1 follows from
    the Euler characteristic (vertices minus edges outside K_v).
    """
    faces = [f for f in brute_faces(facets) if f]
    locus = [
        f for f in faces if max(len(g) for g in facets if f <= set(g)) <= len(f) + 1
    ]
    edges = [(f, g) for f in locus for g in locus if f < g]
    h0 = h1 = 0
    for v in sorted({v for f in facets for v in f}):
        component = {f: f for f in locus}

        def root(f):
            while component[f] != f:
                f = component[f]
            return f

        for f, g in edges:
            a, b = root(f), root(g)
            if a != b:
                component[a] = b
        touched = {root(f) for f in locus if v not in f}
        missing = len({root(f) for f in locus} - touched)
        inner_points = sum(1 for f in locus if v in f)
        inner_edges = sum(1 for f, g in edges if v in g)
        h0 += missing
        h1 += missing - inner_points + inner_edges
    return h0, h1


def brute_weil_cover(vertices, facets):
    """The minimal faces of the punctured height-<=1 locus (as in
    `weil_pic_open_ranks`), each as its sorted positions in `vertices`,
    in sorted order."""
    position = {v: i for i, v in enumerate(vertices)}
    locus = [
        f for f in brute_faces(facets)
        if f and max(len(g) for g in facets if f <= set(g)) <= len(f) + 1
    ]
    minimal = [f for f in locus if not any(g < f for g in locus)]
    return sorted(tuple(sorted(position[v] for v in f)) for f in minimal)


def brute_simplicial_cohomology(vertices, facets, reduced):
    """(free_rank, factors) of H^j of the complex, from j = 0 (reduced: j = -1).

    The complex is spanned by the facets and a singleton per vertex; the
    full coboundary of every degree is built from `brute_faces`, with
    faces ordered by their sorted labels, and each group is read off
    `naive_complex_cohomology`.
    """
    faces = brute_faces(list(facets) + [(v,) for v in vertices])
    top = max(len(f) for f in faces) - 1
    by_dim = [
        sorted(tuple(sorted(f)) for f in faces if len(f) == d + 1)
        for d in range(-1 if reduced else 0, top + 1)
    ]
    coboundaries = []
    for sources, targets in zip(by_dim, by_dim[1:]):
        index = {f: i for i, f in enumerate(sources)}
        rows = [[0] * len(sources) for _ in targets]
        for row, t in zip(rows, targets):
            for l in range(len(t)):
                row[index[t[:l] + t[l + 1 :]]] = (-1) ** l
        coboundaries.append(rows)
    groups = []
    for j, faces_j in enumerate(by_dim):
        d_in = coboundaries[j - 1] if j > 0 and by_dim[j - 1] else []
        d_out = coboundaries[j] if j < len(coboundaries) else []
        groups.append(naive_complex_cohomology(d_in, d_out, len(faces_j)))
    return groups


def polygon_cone_class_group(points):
    """(free_rank, factors) of the class group of the cone over a lattice polygon.

    The cone is spanned by (p, 1) for the given lattice points, which are
    taken to generate Z^3.  The class group is Z^facets modulo the columns
    of the facet-by-3 matrix of the facet normals (`polygon_cone_facets`).
    """
    return naive_cokernel([list(e) for e in polygon_cone_facets(points)])


def polygon_cone_facets(points):
    """Sorted primitive inner normals (n, c) of the cone over a lattice polygon.

    Each edge of the polygon gives one facet, with <n, p> + c = 0 along the
    edge and >= 0 on every point.
    """
    edges = set()
    for (px, py), (qx, qy) in itertools.combinations(points, 2):
        g = math.gcd(qx - px, qy - py)
        for n in ((py - qy) // g, (qx - px) // g), ((qy - py) // g, (px - qx) // g):
            c = -(n[0] * px + n[1] * py)
            if all(n[0] * x + n[1] * y + c >= 0 for x, y in points):
                edges.add((n[0], n[1], c))
    return sorted(edges)


def brute_cone_facets(images):
    """Sorted primitive inner facet normals of the cone over the given images.

    images is a nonempty list of vectors of one length r.  Every r - 1 of
    them whose kernel (read off `naive_snf`) is a line give a candidate,
    kept when it is one-signed on all images.  Returns the string
    "NotFullDimensional" when the images do not span Q^r and "NotPointed"
    when the normals do not, i.e. when the cone contains a line.
    """
    r = len(images[0])
    if len([d for d in naive_diagonal([list(v) for v in images], cols=r) if d]) < r:
        return "NotFullDimensional"
    if r == 0:
        return []
    normals = set()
    for wall in itertools.combinations(images, r - 1):
        _, S, V = naive_snf([list(v) for v in wall], cols=r)
        if not all(S[i][i] for i in range(r - 1)):
            continue  # the wall spans less than a hyperplane
        normal = [V[i][r - 1] for i in range(r)]
        g = math.gcd(*normal)
        normal = [x // g for x in normal]
        values = [sum(a * b for a, b in zip(normal, v)) for v in images]
        if all(x <= 0 for x in values):
            normal = [-x for x in normal]
        elif any(x < 0 for x in values):
            continue
        normals.add(tuple(normal))
    if len([d for d in naive_diagonal([list(n) for n in normals], cols=r) if d]) < r:
        return "NotPointed"
    return sorted(normals)


# ---------------------------------------------------------------------------
# the unit sheaf of an integral presentation, Čech on all intersections


def cech_on_opens(n, relations):
    """(free_rank, factors) of the unit sheaf's Čech cohomology, degrees 0..k-1.

    The presentation has generators 0..n-1 and element relations given as
    (lhs, rhs) exponent vectors; it is taken to be cancellative with a
    torsion-free difference group.  That group is Z^n modulo the rows
    lhs - rhs: with U*R*V = S from `naive_snf`, generator i maps to
    V[i][r:], r the rank of R.  The k cover opens are the complements of
    the maximal primes of `brute_spectrum` short of the maximal ideal.  On
    each of the 2^k - 1 intersections J the units are the lattice L_J of
    the generators outside p_J, the union of the primes off every
    generator of J's opens; with U_J*A_J*V_J = S_J its basis is
    A_J*V_J[:, :rank].  The map from J minus J[l] into J carries (-1)^l
    and solves B_J*X = B_(J minus J[l]) row by row from U_J.
    """
    supports = [tuple(i for i in range(n) if side[i]) for rel in relations for side in rel]
    primes = brute_spectrum(n, list(zip(supports[::2], supports[1::2])), [])
    R = [[a - b for a, b in zip(lhs, rhs)] for lhs, rhs in relations]
    if R:
        _, S, V = naive_snf(R, n)
        rank = len([i for i in range(min(len(R), n)) if S[i][i]])
    else:
        V, rank = identity_rows(n), 0
    images = [V[i][rank:] for i in range(n)]
    punctured = [set(p) for p in primes if len(p) < n]
    maximal = [p for p in punctured if not any(p < q for q in punctured)]
    cover = sorted(tuple(i for i in range(n) if i not in p) for p in maximal)
    k = len(cover)

    lattices = {}  # J -> (U_J, the nonzero diagonal, B_J as rows)
    for size in range(1, k + 1):
        for J in itertools.combinations(range(k), size):
            face = {i for j in J for i in cover[j]}
            inside = {i for p in primes if not set(p) & face for i in p}
            A = [[images[i][row] for i in range(n) if i not in inside]
                 for row in range(n - rank)]
            U, S, V = naive_snf(A)
            diagonal = [S[i][i] for i in range(min(len(A), len(A[0]))) if S[i][i]]
            basis = [row[: len(diagonal)] for row in mat_mul(A, V)]
            lattices[J] = (U, diagonal, basis)

    by_degree = [list(itertools.combinations(range(k), size)) for size in range(1, k + 1)]
    ranks = [sum(len(lattices[J][1]) for J in degree) for degree in by_degree]
    diffs = []
    for sources, targets in zip(by_degree, by_degree[1:]):
        column, width = {}, 0
        for J in sources:
            column[J] = width
            width += len(lattices[J][1])
        rows = []
        for K in targets:
            U, diagonal, _ = lattices[K]
            block = [[0] * width for _ in diagonal]
            for l in range(len(K)):
                J = K[:l] + K[l + 1 :]
                image = mat_mul(U, lattices[J][2])
                for a, s in enumerate(diagonal):
                    for b, x in enumerate(image[a]):
                        assert x % s == 0, "the lattice of K minus K[l] is not inside that of K"
                        block[a][column[J] + b] = (-1) ** l * (x // s)
                for row in image[len(diagonal):]:
                    assert not any(row), "the lattice of K minus K[l] is not inside that of K"
            rows.extend(block)
        diffs.append(rows)
    groups = []
    for j, b in enumerate(ranks):
        d_in = diffs[j - 1] if j > 0 and ranks[j - 1] else []
        d_out = diffs[j] if j < len(diffs) else []
        groups.append(naive_complex_cohomology(d_in, d_out, b))
    return groups


def unit_quotient_faults(n, relations):
    """The punctured primes p ≠ ∅ whose units are not the lattice L_p.

    The presentation has generators 0..n-1 and element relations given as
    (lhs, rhs) exponent vectors; its primes come from `brute_spectrum`.
    The units at p are Z^(generators off p) modulo the rows lhs - rhs of
    the relations with both sides off p, read off `naive_snf`, and L_p is
    the span of the generators off p in Z^n modulo all the rows, whose rank
    is rk[R; e_i, i off p] - rk R.  A prime is returned, as a tuple of
    generators in the order of `brute_spectrum`, when the quotient has
    torsion or a free rank other than rk L_p.
    """
    rank = lambda rows: len([d for d in naive_diagonal(rows, n) if d]) if rows else 0
    supports = [tuple(i for i in range(n) if side[i]) for rel in relations for side in rel]
    primes = brute_spectrum(n, list(zip(supports[::2], supports[1::2])), [])
    R = [[a - b for a, b in zip(lhs, rhs)] for lhs, rhs in relations]
    faults = []
    for p in primes:
        if not p or len(p) == n:
            continue
        off = [i for i in range(n) if i not in p]
        kept = [row for row, (lhs, rhs) in zip(R, relations)
                if not any(lhs[g] or rhs[g] for g in p)]
        units = naive_cokernel([[row[i] for row in kept] for i in off], cols=len(kept))
        lattice = rank(R + [[int(j == i) for j in range(n)] for i in off]) - rank(R)
        if units != (lattice, ()):
            faults.append(p)
    return faults
