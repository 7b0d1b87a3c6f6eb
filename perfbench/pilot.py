"""Rewrite strata.json: each sampling pool ranked by measured cost.

    python3 perfbench/pilot.py

The workloads draw one member from each equal slice of a ranked pool, so
the ranking only has to be roughly right; it sets the sampling design, not a
result. Changing it changes the inputs of every seed, so it is rerun only in
a change that edits the benchmark, never in one that claims a gain.
"""

import contextlib
import json
import os
import shutil

import run
import workloads


def main():
    cli = run.load_ktoric()
    workdir = run.WORK / f"pilot-{os.getpid()}"
    build = {"compare-h3": lambda m: workloads._compare("x", "medium", *m),
             "bott-h3": lambda m: workloads._bott("x", "medium", *m),
             "words-3": lambda m: workloads._samelson("x", "medium", *m)}
    out = {}
    try:
        for name, members in workloads.pools().items():
            cost = []
            for k, member in enumerate(members):
                inst = build[name](member)
                argv = run.write_inputs(inst, workdir / f"{name}-{k}")
                seconds, _, problems = run.run_instance(cli, inst, argv)
                if problems:
                    raise SystemExit(f"{name} {member}: {problems}")
                cost.append((seconds, k))
            out[name] = [members[k] for _, k in sorted(cost)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    with open(workloads.STRATA, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n  " + ",\n  ".join(json.dumps(m) for m in rows) + "\n ]"
            for name, rows in out.items()) + "\n}\n")


if __name__ == "__main__":
    main()
