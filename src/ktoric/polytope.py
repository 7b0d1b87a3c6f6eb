"""Combinatorics of simple polytopes given by vertex-facet incidence.

A polytope of dimension n with d facets is stored as one facet-index set per
vertex. Coordinates are optional and only ever used to evaluate height
functionals; geometric consistency with the incidence data is not checked.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import mul

from .errors import OrderPropertyError, TieError
from .validation import CheckResult, ValidationReport, strict_int, strict_rational

# validate_polytope lists at most this many of the facets on no vertex
MISSING_SHOWN = 20


@dataclass(frozen=True)
class SimplePolytope:
    dim: int
    facet_count: int
    vertices: tuple
    coords: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "dim", strict_int(self.dim))
        object.__setattr__(self, "facet_count", strict_int(self.facet_count))
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.facet_count < self.dim:
            raise ValueError("need at least dim facets")
        verts = tuple(frozenset(map(strict_int, v)) for v in self.vertices)
        if not verts:
            raise ValueError("at least one vertex required")
        for i, v in enumerate(verts):
            for f in v:
                if not 0 <= f < self.facet_count:
                    raise ValueError(f"vertex {i} uses facet index {f} out of range")
        object.__setattr__(self, "vertices", verts)
        if self.coords is not None:
            pts = tuple(tuple(map(strict_rational, pt)) for pt in self.coords)
            if len(pts) != len(verts):
                raise ValueError("one coordinate point per vertex required")
            if any(len(pt) != self.dim for pt in pts):
                raise ValueError("coordinate arity must equal the dimension")
            object.__setattr__(self, "coords", pts)

    @property
    def vertex_count(self):
        return len(self.vertices)


@dataclass(frozen=True)
class VertexOrder:
    """A linear order on vertices: order lists the vertex indices from the
    lowest up, a permutation of 0..m-1."""

    order: tuple

    def __post_init__(self):
        order = tuple(map(strict_int, self.order))
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"order {list(order)} is not a permutation "
                             f"of 0..{len(order) - 1}")
        object.__setattr__(self, "order", order)

    @property
    def positions(self):
        pos = [0] * len(self.order)
        for k, v in enumerate(self.order):
            pos[v] = k
        return tuple(pos)


def simplex(n):
    """The n-simplex. Facet i >= 1 is opposite the i-th basis point, facet 0
    is opposite the origin; vertex k is the one missing facet k."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    everything = frozenset(range(n + 1))
    verts = []
    coords = []
    for k in range(n + 1):
        verts.append(everything - {k})
        coords.append(tuple(Fraction(1 if i == k else 0) for i in range(1, n + 1)))
    return SimplePolytope(n, n + 1, tuple(verts), tuple(coords))


def cube(n):
    """The n-cube with the facet pair of coordinate i flattened to indices
    2*(i-1) for the lower side and 2*(i-1)+1 for the upper one. Vertex k has
    the binary digits of k as coordinates, so vertex 0 is the origin."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    verts = []
    coords = []
    for k in range(1 << n):
        bits = [(k >> i) & 1 for i in range(n)]
        verts.append(frozenset(2 * i + bits[i] for i in range(n)))
        coords.append(tuple(Fraction(b) for b in bits))
    return SimplePolytope(n, 2 * n, tuple(verts), tuple(coords))


def product(p, q):
    """Cartesian product; facets of p keep their indices, facets of q are
    shifted up by p.facet_count, vertices are enumerated p-major."""
    verts = []
    coords = [] if (p.coords is not None and q.coords is not None) else None
    for i, fv in enumerate(p.vertices):
        for j, fw in enumerate(q.vertices):
            verts.append(frozenset(fv) | frozenset(f + p.facet_count for f in fw))
            if coords is not None:
                coords.append(p.coords[i] + q.coords[j])
    return SimplePolytope(
        p.dim + q.dim,
        p.facet_count + q.facet_count,
        tuple(verts),
        tuple(coords) if coords is not None else None,
    )


def _edges(p):
    """For each vertex w, a map from each facet f of w to the other end of
    the edge on the ridge V_w - {f}: the one other vertex whose facet set is
    the ridge and one more facet, or None when no other vertex or more than
    one is, which no simple polytope has. Ridges are keyed by bit mask."""
    ridges = {}
    for v, fs in enumerate(p.vertices):
        mask = sum(1 << f for f in fs)
        for f in fs:
            ridges.setdefault(mask ^ 1 << f, []).append((v, f))
    edges = [dict.fromkeys(fs) for fs in p.vertices]
    for pair in ridges.values():
        if len(pair) == 2:
            (v, f), (w, g) = pair
            edges[v][f] = w
            edges[w][g] = v
    return edges


def validate_polytope(p):
    """Check the combinatorial invariants of a simple polytope and report
    each one separately."""
    checks = []
    n, m = p.dim, p.vertex_count

    bad = [i for i, v in enumerate(p.vertices) if len(v) != n]
    checks.append(CheckResult(
        "vertex_simplicity", not bad,
        f"vertices with facet count != {n}: {bad}" if bad else ""))

    seen = {}
    dups = []
    for i, v in enumerate(p.vertices):
        if v in seen:
            dups.append((seen[v], i))
        else:
            seen[v] = i
    checks.append(CheckResult(
        "distinct_vertices", not dups,
        f"duplicate vertex pairs: {dups}" if dups else ""))

    # every facet index is in range, so the unused ones are counted, and
    # the scan for the first of them stops after MISSING_SHOWN
    used = frozenset().union(*p.vertices)
    unused = p.facet_count - len(used)
    shown = list(islice((f for f in range(p.facet_count) if f not in used),
                        MISSING_SHOWN))
    detail = f"facets on no vertex: {shown}" if unused else ""
    if unused > MISSING_SHOWN:
        detail = f"{unused} facets on no vertex, the first {MISSING_SHOWN}: {shown}"
    checks.append(CheckResult("facet_coverage", not unused, detail))

    adj = [[v for v in ends.values() if v is not None] for ends in _edges(p)]
    wrong = [i for i in range(m) if len(adj[i]) != n]
    checks.append(CheckResult(
        "edge_count", not wrong,
        f"vertices without exactly {n} neighbors: {wrong}" if wrong else ""))

    seen_v = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen_v:
                seen_v.add(nxt)
                stack.append(nxt)
    checks.append(CheckResult(
        "connected", len(seen_v) == m,
        "" if len(seen_v) == m else f"only {len(seen_v)} of {m} vertices reachable"))

    return ValidationReport(tuple(checks))


def minimal_nonfaces(p):
    """Inclusion-minimal facet sets with empty intersection, sorted by
    (size, entries). The faces are the subsets of the vertices' facet sets,
    as bit masks; s is a minimal nonface when it is no face but each s - {g}
    is, and it is found once, as face | {f} from the face s less its largest
    facet f. Sizes stay within dim+1 only on simple polytopes."""
    faces = {0}
    for v in p.vertices:
        mask = sub = sum(1 << f for f in v)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    out = []
    for face in faces:
        for f in range(face.bit_length(), p.facet_count):
            s = face | 1 << f
            if s not in faces and all((s ^ 1 << g) in faces
                                      for g in range(f) if face >> g & 1):
                out.append(tuple(g for g in range(f + 1) if s >> g & 1))
    return sorted(out, key=lambda t: (len(t), t))


def generic_functional(dim):
    """(1, 2, 4, ...): no two 0/1 points of dimension dim share its height."""
    return tuple(1 << k for k in range(dim))


def order_vertices(p, functional):
    """Order vertices by a rational linear functional on their coordinates."""
    if p.coords is None:
        raise ValueError("polytope has no coordinates, supply an explicit vertex order")
    func = list(map(strict_rational, functional))
    if len(func) != p.dim:
        raise ValueError("functional arity must equal the dimension")
    # heights in ints: with the functional and the coordinates over their
    # one common denominator den, each is den**2 times the rational height
    den = lcm(*(a.denominator for a in func),
              *(c.denominator for pt in p.coords for c in pt))

    def scaled(xs):
        return [x.numerator * (den // x.denominator) for x in xs]

    func = scaled(func)
    heights = [sum(map(mul, func, scaled(pt))) for pt in p.coords]
    by_height = {}
    for i, h in enumerate(heights):
        if h in by_height:
            raise TieError(f"vertices {by_height[h]} and {i} share height "
                           f"{Fraction(h, den * den)}")
        by_height[h] = i
    return VertexOrder(sorted(range(p.vertex_count), key=heights.__getitem__))


def ascending_faces(p, vertex_order):
    """The face spanned at each vertex by its ascending edges.

    At vertex w, dropping one facet f of w leaves an edge; that edge descends
    when its other endpoint sits below w. The face attached to w is the
    intersection of the facets whose dropped edge descends, so the lowest
    vertex gets the whole polytope and the highest gets itself. Every vertex
    of the face must lie at or above w; if not, the order cannot come from a
    generic height function and OrderPropertyError is raised.

    Returns a dict mapping vertex index to the facet set of its face.
    """
    pos = vertex_order.positions
    if len(pos) != p.vertex_count:
        raise ValueError("vertex order size does not match the polytope")
    edges = _edges(p)
    faces = {}
    for w, fs in enumerate(p.vertices):
        descending = []
        for f in sorted(fs):
            other = edges[w][f]
            if other is None:
                raise ValueError(
                    f"facets of vertex {w} minus {f} do not span an edge; "
                    "polytope is not a valid simple polytope")
            if pos[other] < pos[w]:
                descending.append(f)
        fset = frozenset(descending)
        below = [v for v, g in enumerate(p.vertices)
                 if pos[v] < pos[w] and fset <= g]
        if below:
            raise OrderPropertyError(
                f"face at vertex {w} contains lower vertices {below}; "
                "the supplied order is not induced by a height function")
        faces[w] = fset
    return faces
