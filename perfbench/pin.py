"""Rewrite pinned.json: report digests of every instance of a default run.

    python3 perfbench/pin.py [--seed N] [--seconds S]

Reports must stay byte-identical from one commit to the next, so this is
run only when the instance lists change, never to absorb a changed report.
"""

import argparse
import json

import run
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    pins = {"default_seed": args.seed, "digests": {}}
    for name in workloads.WORKLOADS:
        session = run.Session(name, args.seed,
                              workloads.pass_count(name, args.seconds))
        try:
            results = session.measure()[0]
        finally:
            session.close()
        failed = [inst.label for inst, r in zip(session.instances, results) if r[2]]
        if failed or session.warmup_problems:
            raise SystemExit(f"{name}: failed instances {failed}; nothing pinned")
        pins["digests"][name] = {inst.label: r[1] for inst, r in
                                 zip(session.instances, results)}
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    main()
