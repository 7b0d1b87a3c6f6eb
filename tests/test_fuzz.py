"""The input boundary, fuzzed: every mutated input file ends in exit 0, 1
or 2, never in another exception, a memory error or a run without end, and
each fixed input, past a size bound or holding a value no reader reads, ends
in its own exit code.

The cases are drawn from a fixed seed. They all run in one child
interpreter under a 2 GiB address-space limit and an alarm per case, so an
input that makes the program build something as large as a number it was
given fails the test instead of taking the machine's memory.
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

SEED = 20251021
CASES = 300
ADDRESS_SPACE = 2 << 30
SECONDS_PER_CASE = 20

# the child runs cli.main on each argument list read from stdin, its output
# captured, and writes one result per case to stdout: the exit code, or the
# name of the exception that escaped main
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
json.dump(results, sys.stdout)
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

# each a document that makes the program build something as large as a
# number it holds, unless that size is bounded first, with its exit code
BIG_TRIANGLE = {**TRIANGLE, "facets": 30000000}
FIXED = [
    ("validate", [BIG_TRIANGLE, TRIANGLE_LAM], [], 2),
    ("kring", [BIG_TRIANGLE, TRIANGLE_LAM], [], 1),
    ("validate", [{**TRIANGLE, "facets": 2 ** 70}, TRIANGLE_LAM], [], 2),
    ("kring", [TRIANGLE, {**TRIANGLE_LAM, "base_vertex": 7}], [], 2),
    ("bott-samelson", [{"type": "A", "rank": 317, "word": [1]}], [], 1),
    ("bott-samelson", [{"type": "A", "rank": 20000, "word": [1]}], [], 1),
    ("bott-samelson", [{"type": "A", "rank": 2 ** 70, "word": [1]}], [], 1),
    ("bott-samelson", [{"type": "A", "rank": 10 ** 288, "word": [1]}], [], 1),
    # each a value that no reader reads, refused rather than dropped
    ("kring", [TRIANGLE, TRIANGLE_LAM],
     [("--order-file", {"order": [0, 2, 1]}), "--functional=x"], 2),
    ("bott-samelson", [{"type": "A", "rank": 2, "matrix": [[2, -3], [-1, 2]],
                        "word": [1, 2]}], [], 2),
    ("bott", [{"n": 2, "C": [[1, 2, 5]]}], [], 2),
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
    key dropped or repeated in upper case, a key no reader reads; doc itself
    when it has no node below its root."""
    every = list(paths(doc))
    if not every:
        return doc
    doc = copy.deepcopy(doc)
    *up, key = rng.choice(every)
    parent = doc
    for k in up:
        parent = parent[k]
    how = rng.choice(["replace", "replace", "drop", "repeat"])
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
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    argvs = [[command, *map(file_of, docs),
              *(o if isinstance(o, str) else f"{o[0]}={file_of(o[1])}"
                for o in options)]
             for command, docs, options in cases]
    src = str(Path(ktoric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    warnings = [f"-W{w}" for w in sys.warnoptions]
    child = subprocess.run([sys.executable, *warnings, "-c", CHILD],
                           input=json.dumps(argvs), capture_output=True,
                           text=True, env=env, timeout=600)
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert len(results) == len(argvs)
    bad = [(case, r) for case, r in zip(cases, results)
           if type(r) is not int or r not in (0, 1, 2)]
    assert not bad
    assert results[:len(FIXED)] == [case[3] for case in FIXED]
