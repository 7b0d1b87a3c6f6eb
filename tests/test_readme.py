"""The README's examples run and say what they show."""

import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

from ktoric import jsonio
from ktoric.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def documents(text):
    """Every JSON document in text, several to a block where they follow
    one another."""
    decoder = json.JSONDecoder()
    out = []
    rest = text.strip()
    while rest:
        doc, end = decoder.raw_decode(rest)
        out.append(doc)
        rest = rest[end:].strip()
    return out


# each input file is recognized by the key only its schema has
READERS = {
    "vertices": jsonio.polytope_from_dict,
    "lambda": jsonio.charmap_from_dict,
    "n": jsonio.bott_from_dict,
    "type": jsonio.cartan_word_from_dict,
    "order": jsonio.vertex_order_from_dict,
}


def test_python_examples_give_the_values_their_comments_state():
    code = blocks("python")
    assert len(code) == 2
    namespace = {}
    for block in code:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["basis"].rank == 3
    assert namespace["basis"].basis_facet_sets == ((), (0,), (0, 1))
    assert namespace["square"] == [(2, Fraction(1))]
    assert namespace["rep"].ok is True


def test_json_input_examples_are_read():
    docs = [doc for block in blocks("json") for doc in documents(block)]
    # polytope, facet vectors, tower, two Cartan documents, vertex order
    assert len(docs) == 6
    for doc in docs:
        [key] = [k for k in READERS if k in doc]
        READERS[key](doc)


def synopsis():
    """{command: its options} from the block under "## Command line", a
    command's continuation lines indented below it; "[--a X | --b Y]" lists
    two options that exclude each other."""
    block = README.split("## Command line", 1)[1].split("```\n")[1]
    out = {}
    for line in block.splitlines():
        if line.startswith("ktoric "):
            command = line.split()[1]
            out[command] = set()
        out[command] |= set(re.findall(r"(?:\[|\| )(--[a-z-]+)", line))
    return out


def test_synopsis_lists_every_option_of_every_command():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {o for a in sp._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
              for name, sp in commands.choices.items()}
    assert synopsis() == parsed
