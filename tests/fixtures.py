"""Shared frozen inputs used across the test suite."""

# two triangles would share vertex 3; the running 4-vertex example
FAVOURITE_FACETS = [(1, 2, 3), (3, 4)]

TRIANGLE_BOUNDARY = [(1, 2), (1, 3), (2, 3)]

# 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 5),
    (1, 3, 6),
    (1, 4, 6),
    (2, 3, 4),
    (2, 3, 6),
    (2, 5, 6),
    (3, 4, 5),
    (4, 5, 6),
]

# cone over it: one new apex vertex 7 joined to every facet
CONE_RP2_FACETS = [facet + (7,) for facet in RP2_FACETS]

TWO_TRIANGLES_AT_A_VERTEX = [(1, 2, 3), (1, 4, 5)]


def star_facets(n):
    """Star graph on n vertices: center 1 joined to each leaf."""
    return [(1, i) for i in range(2, n + 1)]


def cycle_facets(n):
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def path_facets(n):
    return [(i, i + 1) for i in range(1, n)]


def complete_graph_facets(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def zero_dim_facets(n):
    return [(i,) for i in range(1, n + 1)]


def xy_nz(n):
    """(x, y, z | x + y = nz)"""
    from binoids.binoid import BinoidPresentation, Relation

    return BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 0), (0, 0, n)),))


def xyzw():
    """(x, y, z, w | x + y = z + w)"""
    from binoids.binoid import BinoidPresentation, Relation

    return BinoidPresentation(
        ("x", "y", "z", "w"), (Relation((1, 1, 0, 0), (0, 0, 1, 1)),)
    )


def free_binoid(n):
    from binoids.binoid import BinoidPresentation

    return BinoidPresentation(tuple("x%d" % i for i in range(1, n + 1)), ())


def two_x_three_y():
    """(x, y | 2x = 3y)"""
    from binoids.binoid import BinoidPresentation, Relation

    return BinoidPresentation(("x", "y"), (Relation((2, 0), (0, 3)),))


def xyz_to_infinity():
    """(x, y, z | x + y + z = ∞)"""
    from binoids.binoid import BinoidPresentation, Relation

    return BinoidPresentation(("x", "y", "z"), (Relation((1, 1, 1), None),))


def quadric_cone(points):
    """Generators g_i at the points, g_i + g_j = g_k + g_l whenever p_i + p_j = p_k + p_l."""
    from itertools import combinations

    from binoids.binoid import BinoidPresentation, Relation

    n = len(points)

    def vector(pair):
        v = [0] * n
        for i in pair:
            v[i] += 1
        return tuple(v)

    def total(pair):
        i, j = pair
        return tuple(a + b for a, b in zip(points[i], points[j]))

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return BinoidPresentation(
        tuple("g%d" % i for i in range(n)),
        tuple(
            Relation(vector(a), vector(b))
            for a, b in combinations(pairs, 2)
            if total(a) == total(b)
        ),
    )


def lattice_polygon(edges):
    """The lattice points of the convex polygon whose boundary, walked
    counterclockwise from the origin, takes the given edge vectors (which
    sum to zero, in distinct directions) in order of angle."""
    from math import atan2

    corners = [(0, 0)]
    for dx, dy in sorted(edges, key=lambda e: atan2(e[1], e[0]))[:-1]:
        corners.append((corners[-1][0] + dx, corners[-1][1] + dy))
    sides = list(zip(corners, corners[1:] + corners[:1]))
    xs, ys = [x for x, _ in corners], [y for _, y in corners]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all((bx - ax) * (y - ay) >= (by - ay) * (x - ax) for (ax, ay), (bx, by) in sides)
    ]


def presentation_text(M):
    """A presentation in the input file syntax: its generators, then one line per relation."""
    lines = ["generators: " + " ".join(M.generator_names)]
    lines += ["relation: " + rel.text(M.generator_names) for rel in M.relations]
    return "\n".join(lines) + "\n"
