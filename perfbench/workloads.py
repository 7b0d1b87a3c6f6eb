"""Seeded instance lists for the three workloads.

Inputs are plain JSON documents built here, independently of ktoric, and
reach the program only as files. Every instance in one process is distinct.

A pass is one list of instances. Two kinds of instance make it up:

* Seeded instances: drawn from the pass's generator, which depends on the
  workload, the seed and the pass index. They hold the median and the tail
  percentile, so each pass draws many of them, one from each equal slice of
  a pool ranked by cost (strata.json), so that the cost mix is the same for
  every seed.
* Frontier instances (the workload's largest): their cost varies several
  fold from one input to the next (a height-4 `compare` takes 1.3 s to 12 s
  depending on the tower), and a pass has room for only a few of them. They
  are drawn from a generator that depends on the workload and the pass index
  but not on the seed, so `frontier_s` measures the same inputs on every
  seed. For polytope-kring the polytopes are fixed anyway and the seed still
  picks their functionals.

Two `kring` instances of one polytope are distinct only if their functionals
order the vertices differently (the report depends on the order, not on the
heights), so the functionals are signed and redrawn until the order is new.
"""

import dataclasses
import itertools
import json
import random
from pathlib import Path

STRATA = Path(__file__).resolve().parent / "strata.json"

WORKLOADS = ("polytope-kring", "tower-compare", "word-bott")

# Seconds one pass takes on the reference machine (2 cores, Python 3.11.7).
PASS_SECONDS = {"polytope-kring": 15, "tower-compare": 33, "word-bott": 29}


def pass_count(workload, seconds):
    """Whole passes for a measuring time, at least one. It depends on the
    arguments only, so a parent and a change measure the same instances."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


@dataclasses.dataclass(frozen=True)
class Instance:
    label: str      # unique within a run
    size: str       # "small", "medium" or "frontier"
    command: str    # ktoric subcommand
    files: tuple    # ((file name, JSON document), ...) passed in this order
    options: tuple  # further arguments after the files
    expect: dict    # what the output check needs to know
    pass_index: int = 0

    @property
    def frontier(self):
        return self.size == "frontier"


# -- polytopes as JSON documents ------------------------------------------------


def _polytope(dim, facets, vertices, coords, vectors):
    return ({"dim": dim, "facets": facets,
             "vertices": [sorted(v) for v in vertices],
             "coords": [[str(x) for x in pt] for pt in coords]},
            {"lambda": [list(v) for v in vectors]})


def simplex(n):
    """Vertex k misses facet k; vertex 0 is the origin, vertex k >= 1 the
    k-th unit point. Facet 0 carries minus the sum of the unit vectors."""
    everything = set(range(n + 1))
    vertices = [everything - {k} for k in range(n + 1)]
    coords = [[1 if i == k else 0 for i in range(1, n + 1)] for k in range(n + 1)]
    vectors = [[-1] * n] + [[1 if j == i else 0 for j in range(n)]
                            for i in range(n)]
    return _polytope(n, n + 1, vertices, coords, vectors)


def cube(n, twist=None):
    """Facets 2i (lower) and 2i+1 (upper) of direction i; vertex k has the
    binary digits of k as coordinates. Untwisted: e_i and -e_i. A twist a
    on the square puts -e_1 + a e_2 on the upper facet of direction 1."""
    vertices = [{2 * i + ((k >> i) & 1) for i in range(n)} for k in range(1 << n)]
    coords = [[(k >> i) & 1 for i in range(n)] for k in range(1 << n)]
    vectors = []
    for i in range(n):
        vectors.append([1 if j == i else 0 for j in range(n)])
        vectors.append([-1 if j == i else 0 for j in range(n)])
    if twist is not None:
        vectors[1] = [-1, twist]
    return _polytope(n, 2 * n, vertices, coords, vectors)


def product(p, q):
    """Vertices p-major, facets of q shifted past those of p, facet vectors
    block diagonal."""
    (pp, pl), (qp, ql) = p, q
    vertices = [set(a) | {f + pp["facets"] for f in b}
                for a in pp["vertices"] for b in qp["vertices"]]
    coords = [a + b for a in pp["coords"] for b in qp["coords"]]
    vectors = ([v + [0] * qp["dim"] for v in pl["lambda"]]
               + [[0] * pp["dim"] + v for v in ql["lambda"]])
    return _polytope(pp["dim"] + qp["dim"], pp["facets"] + qp["facets"],
                     vertices, coords, vectors)


def simplex_product(dims):
    out = simplex(dims[0])
    for d in dims[1:]:
        out = product(out, simplex(d))
    return out


def generic_functional(rng, poly, seen, key):
    """Random signed integer heights under which no two vertices tie and
    whose vertex order (and so base vertex, the lowest) no earlier instance
    of the same polytope had: two functionals with one order give
    byte-identical reports. None when every order has been used."""
    coords = [[int(x) for x in pt] for pt in poly["coords"]]
    for _ in range(1000):
        f = [rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
             for _ in range(poly["dim"])]
        heights = [sum(a * c for a, c in zip(f, pt)) for pt in coords]
        order = tuple(sorted(range(len(coords)), key=heights.__getitem__))
        if len(set(heights)) == len(coords) and (key, order) not in seen:
            seen.add((key, order))
            return ",".join(map(str, f))
    return None


def _kring(label, size, rng, seen, poly, r=None):
    """A kring instance, or None when the polytope has no unused order."""
    p, lam = poly
    key = json.dumps([p, lam, r], sort_keys=True)
    functional = generic_functional(rng, p, seen, key)
    if functional is None:
        return None
    # "=" keeps a leading minus sign from reading as an option
    options = ["--functional=" + functional]
    if r is not None:
        options += ["--r", ",".join(map(str, r))]
    return Instance(label, size, "kring",
                    (("polytope.json", p), ("vectors.json", lam)),
                    tuple(options),
                    {"vertices": len(p["vertices"]), "integral": r is None})


# -- towers and words -------------------------------------------------------------


def tower_entries(n):
    return n * (n - 1) // 2


def tower_doc(n, values):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {"n": n, "c": [[i, j, v] for (i, j), v in zip(pairs, values)]}


def all_towers(n):
    return list(itertools.product(range(-2, 3), repeat=tower_entries(n)))


def pick(rng, members, count, seen, key=lambda m: m):
    """count members drawn uniformly among those whose key is not in seen;
    their keys are added to seen."""
    fresh = [m for m in members if key(m) not in seen]
    picked = rng.sample(fresh, min(count, len(fresh)))
    seen.update(key(m) for m in picked)
    return picked


def pick_stratified(rng, ranked, count, seen, key=lambda m: m):
    """One member from each of count equal slices of a pool ranked by cost
    (see strata.json), so every seed draws the same mix of cheap and dear
    instances and the median and tail land on the same part of the pool."""
    picked = []
    for k in range(count):
        part = ranked[k * len(ranked) // count:(k + 1) * len(ranked) // count]
        picked += pick(rng, part, 1, seen, key)
    return picked


# Named Cartan matrices as ktoric tabulates them, to tell which words give
# the same tower.
CARTAN = {
    ("A", 2): ((2, -1), (-1, 2)),
    ("B", 2): ((2, -1), (-2, 2)),
    ("C", 2): ((2, -2), (-1, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
}
CARTAN_TYPES = tuple(CARTAN)


def word_tower(kind, rank, word):
    """Tower entries of a word under the row convention: stages i < j pair
    as row word[j], column word[i]."""
    m = CARTAN[kind, rank]
    return (len(word), tuple(m[word[j] - 1][word[i] - 1]
                             for i in range(len(word))
                             for j in range(i + 1, len(word))))


def words(length):
    """Every word of the length over every type, one per tower: words that
    give the same tower give the same computation."""
    out, seen = [], set()
    for kind, rank in CARTAN_TYPES:
        for w in itertools.product(range(1, rank + 1), repeat=length):
            if word_tower(kind, rank, w) not in seen:
                seen.add(word_tower(kind, rank, w))
                out.append((kind, rank, w))
    return out


def word_key(member):
    return word_tower(*member)


def pools():
    """The pools that strata.json ranks: height-3 towers for compare, the
    height-3 towers no length-3 word gives for bott, and length-3 words."""
    word_towers = {word_key(m) for m in words(3)}
    towers = [(3, t) for t in all_towers(3)]
    return {"compare-h3": towers,
            "bott-h3": [t for t in towers if t not in word_towers],
            "words-3": words(3)}


def ranked(name):
    """A pool in increasing order of measured cost."""
    with open(STRATA, encoding="utf-8") as fh:
        rows = json.load(fh)[name]
    if name == "words-3":
        return [(kind, rank, tuple(w)) for kind, rank, w in rows]
    return [(n, tuple(t)) for n, t in rows]


def word_doc(kind, rank, word):
    return {"type": kind, "rank": rank, "word": list(word)}


def _compare(label, size, n, values):
    return Instance(label, size, "compare", (("tower.json", tower_doc(n, values)),),
                    (), {"n": n})


def _bott(label, size, n, values):
    return Instance(label, size, "bott", (("tower.json", tower_doc(n, values)),),
                    (), {"n": n})


def _samelson(label, size, kind, rank, word):
    return Instance(label, size, "bott-samelson",
                    (("cartan.json", word_doc(kind, rank, word)),),
                    (), {"n": len(word)})


def _tag(values):
    return "_".join(str(v) for v in values)


# -- workloads ----------------------------------------------------------------------


def polytope_kring(seed, index, seen):
    rng = random.Random(f"polytope-kring/{seed}/{index}")
    out = []
    for n in range(1, 9):
        out.append(_kring(f"simplex{n}", "small", rng, seen, simplex(n)))
    for n in range(1, 5):
        r = [rng.randint(2, 9) for _ in range(n)]
        out.append(_kring(f"deformed{n}", "small", rng, seen, simplex(n), r))
    for a in rng.sample(range(-3, 4), 4):
        out.append(_kring(f"square{a}", "small", rng, seen, cube(2, twist=a)))
    out.append(_kring("prism", "small", rng, seen, simplex_product((1, 2))))
    for dims in ((1, 3), (2, 2)):
        out.append(_kring("prod" + "".join(map(str, dims)), "small", rng, seen,
                          simplex_product(dims)))
    out.append(_kring("cube2", "small", rng, seen, cube(2)))
    # seven cube(3), each with its own vertex order, cost about what
    # simplex(5), simplex(6), prod13 and prod22 cost (0.023-0.045 s): the
    # class the median lands in
    for copy in range(7):
        out.append(_kring(f"cube3.{copy}", "small", rng, seen, cube(3)))
    for dims in ((1, 1, 2), (2, 3), (1, 2, 2)):
        out.append(_kring("prod" + "".join(map(str, dims)), "medium", rng, seen,
                          simplex_product(dims)))
    for copy in range(6):
        out.append(_kring(f"cube4.{copy}", "medium", rng, seen, cube(4)))
        out.append(_kring(f"prod33.{copy}", "medium", rng, seen,
                          simplex_product((3, 3))))
    out.append(_kring("prod222", "frontier", rng, seen, simplex_product((2, 2, 2))))
    out.append(_kring("cube5", "frontier", rng, seen, cube(5)))
    out = [inst for inst in out if inst is not None]
    rng.shuffle(out)
    return out


def tower_compare(seed, index, seen):
    fixed = random.Random(f"tower-compare/frontier/{index}")
    out = [_compare(f"h4.{_tag(t)}", "frontier", n, t)
           for n, t in pick(fixed, [(4, t) for t in all_towers(4)], 2, seen)]
    rng = random.Random(f"tower-compare/{seed}/{index}")
    out += [_compare(f"h2.{_tag(t)}", "small", n, t)
            for n, t in pick(rng, [(2, t) for t in all_towers(2)], 5, seen)]
    out += [_compare(f"h3.{_tag(t)}", "medium", n, t)
            for n, t in pick_stratified(rng, ranked("compare-h3"), 56, seen)]
    rng.shuffle(out)
    return out


def word_bott(seed, index, seen):
    # Towers of different heights never coincide, so drawing the frontier
    # first keeps it independent of the seed.
    fixed = random.Random(f"word-bott/frontier/{index}")
    out = [_samelson(f"{k}{r}.{_tag(w)}", "frontier", k, r, w)
           for k, r, w in pick(fixed, words(4), 2, seen, word_key)]
    out += [_bott(f"h4.{_tag(t)}", "frontier", n, t)
            for n, t in pick(fixed, [(4, t) for t in all_towers(4)], 2, seen)]
    rng = random.Random(f"word-bott/{seed}/{index}")
    out += [_samelson(f"{k}{r}.{_tag(w)}", "medium", k, r, w)
            for k, r, w in pick_stratified(rng, ranked("words-3"), 12, seen, word_key)]
    out += [_bott(f"h3.{_tag(t)}", "medium", n, t)
            for n, t in pick_stratified(rng, ranked("bott-h3"), 36, seen)]
    rng.shuffle(out)
    return out


BUILDERS = {
    "polytope-kring": polytope_kring,
    "tower-compare": tower_compare,
    "word-bott": word_bott,
}


def warmup(workload):
    """One small instance that no pass contains."""
    if workload == "polytope-kring":
        return _kring("warmup", "small", random.Random("warmup"), set(),
                      simplex_product((1, 1)))
    if workload == "tower-compare":
        return _compare("warmup", "small", 1, ())
    return _samelson("warmup", "small", "A", 2, (1, 2))


def instances(workload, seed, passes):
    """The instance list of each pass, labels prefixed with the pass index.
    Later passes draw only towers and words that earlier passes left."""
    out = []
    seen = set()
    for index in range(passes):
        for inst in BUILDERS[workload](seed, index, seen):
            out.append(dataclasses.replace(inst, label=f"p{index}.{inst.label}",
                                           pass_index=index))
    return out
