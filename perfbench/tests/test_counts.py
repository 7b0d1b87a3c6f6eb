"""Pinned work counts of the smallest instances of each workload.

Arithmetic is exact and every tie is broken by a fixed order, so these
counts repeat bit for bit. A change that does more work, or less, fails
here; update the numbers only together with a reason.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 17

# Distinct ratios are written as distinct inputs / calls.
PINNED = {
    "polytope-kring": {
        "polyring.s_polynomial.calls": 118,
        "polyring.buchberger.calls": 27,
        "polyring.buchberger.distinct_ratio": 23 / 27,
        "polyring.reduce.calls": 1216,
        "intlinalg.eliminations": 108,
        "intlinalg.distinct_ratio": 43 / 108,
        "polyring.gb.generators": 149,
    },
    "tower-compare": {
        "polyring.s_polynomial.calls": 141,
        "polyring.buchberger.calls": 10,
        "polyring.buchberger.distinct_ratio": 10 / 10,
        "polyring.reduce.calls": 454,
        "intlinalg.eliminations": 35,
        "intlinalg.distinct_ratio": 21 / 35,
        "polyring.gb.generators": 64,
    },
    "word-bott": {
        "polyring.s_polynomial.calls": 320,
        "polyring.buchberger.calls": 6,
        "polyring.buchberger.distinct_ratio": 3 / 6,
        "polyring.reduce.calls": 18,
        "intlinalg.eliminations": 0,
        "intlinalg.distinct_ratio": 0.0,
        "polyring.gb.generators": 88,
    },
}


def smallest(workload):
    """Pass 0 of the seed's list, cut to its cheapest instances."""
    insts = workloads.BUILDERS[workload](SEED, 0, set())
    if workload == "word-bott":
        return [i for i in insts if i.size == "medium" and i.label.startswith("A2.")]
    return [i for i in insts if i.size == "small"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_counts(workload, tmp_path):
    cli = run.load_ktoric()
    insts = smallest(workload)
    argvs = [run.write_inputs(inst, tmp_path) for inst in insts]
    tracer, results = run.trace_instances(cli, insts, argvs)
    assert [r[2] for r in results] == [[]] * len(insts)
    metrics = run.layer_metrics(tracer)
    counts = {name: metrics[name] for name in run.PINNED_COUNTS}
    assert counts == PINNED[workload]
