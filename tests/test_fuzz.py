"""The run-time contract, checked in one place: every mutated input file
ends in exit 0, 1 or 2, never in another exception, a memory error or a run
without end; each fixed case, every command once, sizes past a bound and
values no reader would read, ends in its own exit code; and no module
outside the standard library and ktoric is loaded.

The cases are drawn from a fixed seed. They all run in one child
interpreter, started with -S so that site-packages is off the path, under a
2 GiB address-space limit and an alarm per case, so an input that makes the
program build something as large as a number it was given fails the test
instead of taking the machine's memory.
"""

import copy
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import ktoric

from ladder import cp2_sum, truncated_triangle

SEED = 20251021
CASES = 300
ADDRESS_SPACE = 2 << 30
SECONDS_PER_CASE = 10

# the child runs cli.main on each argument list read from stdin, its output
# captured, and writes to stdout one result per case, the exit code or the
# name of the exception that escaped main, and then every loaded module
# outside the standard library and ktoric
CHILD = f"""
import contextlib, io, json, resource, signal, sys

hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = {ADDRESS_SPACE} if hard == resource.RLIM_INFINITY else min({ADDRESS_SPACE}, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


class Alarm(BaseException):
    pass


def ring(signum, frame):
    raise Alarm


signal.signal(signal.SIGALRM, ring)
from ktoric import cli

results = []
for argv in json.load(sys.stdin):
    sink = io.StringIO()
    try:
        signal.alarm({SECONDS_PER_CASE})
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = cli.main(argv)
        signal.alarm(0)
    except SystemExit as exc:
        result = exc.code
    except BaseException as exc:
        result = type(exc).__name__
    finally:
        signal.alarm(0)
    del sink
    results.append(result)
extra = sorted(name for name in sys.modules if name.partition(".")[0]
               not in (*sys.stdlib_module_names, "ktoric", "__main__"))
json.dump([results, extra], sys.stdout)
"""

TRIANGLE = {"dim": 2, "facets": 3, "vertices": [[1, 2], [0, 2], [0, 1]],
            "coords": [[0, 0], [1, 0], [0, 1]]}
TRIANGLE_LAM = {"lambda": [[-1, -1], [1, 0], [0, 1]], "base_vertex": 0}
SQUARE = {"dim": 2, "facets": 4, "vertices": [[0, 2], [1, 2], [0, 3], [1, 3]],
          "coords": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
SQUARE_LAM = {"lambda": [[1, 0], [-1, 1], [0, 1], [0, -1]], "base_vertex": 0}
CUBE3 = {"dim": 3, "facets": 6,
         "vertices": [[0, 2, 4], [1, 2, 4], [0, 3, 4], [1, 3, 4],
                      [0, 2, 5], [1, 2, 5], [0, 3, 5], [1, 3, 5]],
         "coords": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                    [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]}
CUBE3_LAM = {"lambda": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                        [0, 0, 1], [0, 0, -1]], "base_vertex": 0}
# the last labeling has no base vertex, as the benchmark's have none: kring
# takes the lowest vertex of the order
LABELED = [(TRIANGLE, TRIANGLE_LAM), (SQUARE, SQUARE_LAM), (CUBE3, CUBE3_LAM),
           (CUBE3, {"lambda": CUBE3_LAM["lambda"]})]
TOWER3 = {"n": 3, "c": [[1, 2, 1], [1, 3, -2], [2, 3, 1]]}
WORDS = [
    {"type": "A", "rank": 2, "word": [1, 2, 1]},
    {"type": "B", "rank": 2, "word": [1, 2], "convention": "row"},
    {"type": "G", "rank": 2, "word": [2, 1], "convention": "col"},
    {"type": "D", "rank": 4, "word": [1, 2, 3]},
    {"type": "matrix", "rank": 2, "matrix": [[2, -1], [-2, 2]], "word": [1, 2]},
]

# what a node may be replaced by
VALUES = [0, 1, -1, 2 ** 70, 10 ** 400, 1.5, math.nan, "1/0", "a", None, [], {}]
OPTIONS = {
    "--budget": ["0", "1", "50"],
    "--r": ["2,3", "1/2,-1", "0,1", "1/0", "a", "1"],
    "--functional": ["1,2", "1,1", "3,-7,19", "x"],
}
COMMAND_OPTIONS = {
    "validate": [],
    "kring": ["--budget", "--r", "--functional", "--order-file"],
    "bott": ["--budget"],
    "compare": ["--budget"],
    "bott-samelson": ["--budget"],
}

# the star, three vertices on facet 0 of a polygon, and the square whose
# vertex 0 lies on three facets: each fails validation
STAR = [{"dim": 2, "facets": 4, "vertices": [[0, 1], [0, 2], [0, 3]],
         "coords": [[0, 0], [1, 0], [0, 1]]},
        {"lambda": [[1, 0], [0, 1], [1, 1], [1, -1]], "base_vertex": 0}]
THREE_FACETS = [{"dim": 2, "facets": 4,
                 "vertices": [[0, 1, 2], [1, 2], [2, 3], [3, 0]],
                 "coords": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                {"lambda": [[1, 0], [0, 1], [-1, 0], [0, -1]], "base_vertex": 1}]
BIG_TRIANGLE = {**TRIANGLE, "facets": 30000000}
# too few points for a polytope of its dimension, whose default functional
# generic_functional(200000) would hold about 2 * 10^10 bits
FLAT = {"dim": 200000, "facets": 200000, "vertices": [[0]]}
CP2_SUM, CP2_SUM_LAM = cp2_sum()
# (command, documents, options, exit code); a document given as a str is
# the file's text, written as is
FIXED = [
    # every command and the help once, each exit 0
    ("validate", [TRIANGLE, TRIANGLE_LAM], [], 0),
    ("kring", [TRIANGLE, TRIANGLE_LAM], [], 0),
    ("kring", [TRIANGLE, TRIANGLE_LAM], [("--order-file", {"order": [2, 0, 1]})], 0),
    # no base vertex: kring takes the lowest vertex of the order
    ("kring", [TRIANGLE, {"lambda": TRIANGLE_LAM["lambda"]}], [], 0),
    ("kring", [CUBE3, CUBE3_LAM], [], 0),
    # the text renderer walks the structure constant rows
    ("kring", [CUBE3, CUBE3_LAM], ["--format=text"], 0),
    ("bott", [TOWER3], [], 0),
    ("compare", [TOWER3], [], 0),
    ("bott-samelson", [{"type": "A", "rank": 2, "word": [1, 2, 1]}], [], 0),
    # "convention" is the one setter of the pairing convention
    ("bott-samelson", [{"type": "B", "rank": 2, "word": [1, 2],
                        "convention": "col"}], [], 0),
    ("--help", [], [], 0),
    ("kring", [], ["--help"], 0),
    # the involution check reduces centred swaps, 1999 table entries
    ("bott", [{"n": 2, "c": [[1, 2, 2000]]}], [], 0),
    # Buchberger, about 2v steps for a twist v, runs out of budget in time
    ("bott", [{"n": 2, "c": [[1, 2, 4000]]}], [], 1),
    # 256 x 256 and 512 x 512 change matrices, eliminated as sparse rows
    ("compare", [{"n": 8}], [], 0),
    ("compare", [{"n": 9}], [], 0),
    # a height past RANK_CAP is refused before 2^n, the cube or the
    # presentation is formed
    ("bott", [{"n": 2 ** 70}], [], 1),
    ("compare", [{"n": 17}], [], 1),
    # validation fails edge_count and connected, and kring stops there
    # rather than in ascending_faces
    ("validate", STAR, [], 1),
    ("kring", STAR, [], 1),
    # vertex 0's three vectors are no lattice basis: exit 1 with the report,
    # where a non-square matrix handed to det_int would end it in an error
    ("validate", THREE_FACETS, [], 1),
    # json's RecursionError is unparsable input, not a crash
    ("bott", ["[" * 100000 + "]" * 100000], [], 2),
    # each a document that makes the program build something as large as a
    # number it holds, unless that size is bounded first
    ("validate", [BIG_TRIANGLE, TRIANGLE_LAM], [], 2),
    ("kring", [BIG_TRIANGLE, TRIANGLE_LAM], [], 1),
    ("validate", [{**TRIANGLE, "facets": 2 ** 70}, TRIANGLE_LAM], [], 2),
    ("kring", [TRIANGLE, {**TRIANGLE_LAM, "base_vertex": 7}], [], 2),
    ("kring", [FLAT, {"lambda": [[1]]}], [], 2),
    ("kring", [{**FLAT, "coords": [[0] * 200000]}, {"lambda": [[1]]}], [], 2),
    # a decimal exponent, which Fraction would multiply out in full
    ("kring", [{**TRIANGLE, "coords": [[0, 0], ["1e999999999", 0], [0, 1]]},
               TRIANGLE_LAM], [], 2),
    ("kring", [TRIANGLE, TRIANGLE_LAM], ["--r=1e999999999,1"], 2),
    ("bott-samelson", [{"type": "A", "rank": 317, "word": [1]}], [], 1),
    ("bott-samelson", [{"type": "A", "rank": 20000, "word": [1]}], [], 1),
    ("bott-samelson", [{"type": "A", "rank": 2 ** 70, "word": [1]}], [], 1),
    ("bott-samelson", [{"type": "A", "rank": 10 ** 288, "word": [1]}], [], 1),
    # the 9-gon and the 15-gon: with each covector relation expanded in full
    # rather than modulo the face ideal, the 9-gon ran out of budget and one
    # relation of the 15-gon had about 10^10 terms; the budget stops it
    ("kring", list(truncated_triangle(6)), [], 0),
    ("kring", list(truncated_triangle(12)), [], 1),
    # CP²#CP² at a base vertex where the covector relations alone leave a
    # quotient of rank 5: kring adds x_j^3 and runs Buchberger once more
    ("kring", [CP2_SUM, {**CP2_SUM_LAM, "base_vertex": 1}], [], 0),
    # each a value that no reader reads, refused rather than dropped
    ("kring", [TRIANGLE, TRIANGLE_LAM],
     [("--order-file", {"order": [0, 2, 1]}), "--functional=x"], 2),
    ("bott-samelson", [{"type": "A", "rank": 2, "matrix": [[2, -3], [-1, 2]],
                        "word": [1, 2]}], [], 2),
    ("bott", [{"n": 2, "C": [[1, 2, 5]]}], [], 2),
    # an empty value is given, not absent, and a facet listed twice at a
    # vertex is not read as listed once
    ("kring", [TRIANGLE, TRIANGLE_LAM], ["--r="], 2),
    ("kring", [{**TRIANGLE, "vertices": [[1, 2, 2], [0, 2], [0, 1]]},
               TRIANGLE_LAM], [], 2),
    # a key given twice, whose first value json.load would drop
    ("bott", ['{"n": 2, "c": [[1, 2, 3]], "c": []}'], [], 2),
]


def paths(node, at=()):
    """The path of every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield at + (key,)
        yield from paths(child, at + (key,))


def mutate(doc, rng):
    """doc with one node replaced, one list entry dropped or repeated, or one
    key dropped or repeated in upper case, a key no reader reads; or doc's
    text with one top-level key given a second value; doc itself when it has
    no node below its root."""
    every = list(paths(doc))
    if not every:
        return doc
    doc = copy.deepcopy(doc)
    *up, key = rng.choice(every)
    parent = doc
    for k in up:
        parent = parent[k]
    how = rng.choice(["replace", "replace", "drop", "repeat", "twice"])
    if how == "twice":
        twice, value = json.dumps((*up, key)[0]), json.dumps(rng.choice(VALUES))
        return f"{json.dumps(doc)[:-1]}, {twice}: {value}}}"
    if how == "replace":
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif how == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key.upper()] = copy.deepcopy(parent[key])
    return doc


def draw(rng):
    """(command, documents, options), one to three mutations applied to the
    documents. An option given as a document is a file option: it names the
    file that holds the document."""
    command = rng.choice(list(COMMAND_OPTIONS))
    if command in ("validate", "kring"):
        docs = list(rng.choice(LABELED))
    elif command == "bott-samelson":
        docs = [rng.choice(WORDS)]
    else:
        docs = [TOWER3]
    options = []
    for name in COMMAND_OPTIONS[command]:
        if rng.random() < 0.3:
            if name == "--order-file":
                m = len(docs[0]["vertices"])
                options.append((name, {"order": rng.sample(range(m), m)}))
            else:
                options.append(f"{name}={rng.choice(OPTIONS[name])}")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(docs) + len(options))
        if k < len(docs):
            docs[k] = mutate(docs[k], rng)
        elif isinstance(options[k - len(docs)], tuple):
            name, doc = options[k - len(docs)]
            options[k - len(docs)] = (name, mutate(doc, rng))
    return command, docs, options


def test_every_fuzzed_input_exits_0_1_or_2(tmp_path):
    rng = random.Random(SEED)
    cases = [case[:3] for case in FIXED] + [draw(rng) for _ in range(CASES)]
    written = itertools.count()

    def file_of(doc):
        path = tmp_path / f"doc{next(written)}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                        encoding="utf-8")
        return str(path)

    argvs = [[command, *map(file_of, docs),
              *(o if isinstance(o, str) else f"{o[0]}={file_of(o[1])}"
                for o in options)]
             for command, docs, options in cases]
    src = str(Path(ktoric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    python = [sys.executable, "-S", *(f"-W{w}" for w in sys.warnoptions)]
    child = subprocess.run([*python, "-c", CHILD],
                           input=json.dumps(argvs), capture_output=True,
                           text=True, env=env, timeout=600)
    assert child.returncode == 0, child.stderr
    results, extra = json.loads(child.stdout)
    assert len(results) == len(argvs)
    bad = [(case, r) for case, r in zip(cases, results)
           if type(r) is not int or r not in (0, 1, 2)]
    assert not bad
    assert results[:len(FIXED)] == [case[3] for case in FIXED]
    assert not extra
    # the child calls cli.main, so the module's own entry runs here
    entry = subprocess.run([*python, "-m", "ktoric.cli", "--help"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert entry.returncode == 0, entry.stderr
