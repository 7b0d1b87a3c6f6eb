"""End-to-end benchmark of the ktoric command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: every instance is a `ktoric` command line
sent through `ktoric.cli.main` inside this process, and the next one is sent
only after the previous one returns. Inputs are generated from the seed and
written as JSON files under `.perfbench_work/` before timing starts. Every
report is checked (see `check`), no two reports of a run may be equal, and
with the default seed the sha256 of each report must also equal the digest
pinned in `pinned.json`. Times are CPU seconds scaled to the reference
machine by a calibration that runs between instances (`calibrate`,
`host_scale`).

A pass is the workload's instance list; a run makes
`workloads.pass_count(workload, S)` passes.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1 the
run makes the untraced pass, then starts a second process that installs the
tracer (tracer.py) and makes the same pass again; the last line holds the
per-layer metrics from that second process, and its spans are written to
`.perfbench_out/`.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import ELIMINATIONS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
PINNED = HERE / "pinned.json"

SETUP_REPEATS = 9
TAIL_ABOVE = 10

# Host-speed calibration (see `calibrate`): a sample is taken whenever this
# much instance CPU time has passed since the last one, each instance is
# scaled by the samples nearest to it (`host_scale`), and CALIBRATION_REF_S
# is the sample's median on the reference machine, so that times are
# reported in seconds of that machine. CALIBRATION_EXPONENT is how far
# instance times follow the calibration's: on the reference machine the log
# of a fixed instance's time moved 0.63 times as far as the log of the
# calibration's (correlation 0.91 over 6-s windows).
CALIBRATE_EVERY_S = 0.5
CALIBRATION_WINDOW = 5
CALIBRATION_REF_S = 0.047
CALIBRATION_EXPONENT = 0.6

# Wrapped functions that must record at least one call on each workload
# (the tracer self-check). A name missing here means a binding the tracer
# failed to replace, or a layer the workload no longer reaches.
_COMMON = ("polyring.buchberger", "polyring.s_polynomial",
           "polyring.standard_monomials", "polyring.reduce",
           "kring.quotient_basis", "jsonio.dumps", "cli.main")
_POLYTOPE = ("polytope.minimal_nonfaces", "polytope.validate_polytope",
             "polytope.ascending_faces", "polytope.order_vertices",
             "charmap.validate_charmap", "charmap.dual_basis",
             "intlinalg.rat_rank", "intlinalg.rat_det", "intlinalg.rat_inverse",
             "kring.compute_basis", "kring.build_presentation")
EXPECTED_CALLS = {
    "polytope-kring": _COMMON + _POLYTOPE + (
        "polyring.render_poly", "jsonio.polytope_from_dict",
        "jsonio.charmap_from_dict", "jsonio.kring_report"),
    "tower-compare": _COMMON + _POLYTOPE + (
        "intlinalg.rat_solve", "kring.invert_unit", "kring.evaluate_in_quotient",
        "kring.ring_map_check", "bott.bott_equivalence", "bott.bott_charmap",
        "bott.bott_presentation", "jsonio.bott_from_dict",
        "jsonio.compare_report"),
    "word-bott": _COMMON + (
        "polyring.render_poly", "bott.laurent_rank", "bott.involution_check",
        "bott.bott_presentation", "bott.bott_samelson_presentation",
        "jsonio.bott_from_dict", "jsonio.cartan_word_from_dict",
        "jsonio.bott_report", "jsonio.samelson_report"),
}

# Counts that repeat exactly; tests/test_counts.py pins them.
PINNED_COUNTS = (
    "polyring.s_polynomial.calls", "polyring.buchberger.calls",
    "polyring.buchberger.distinct_ratio", "polyring.reduce.calls",
    "intlinalg.eliminations", "intlinalg.distinct_ratio",
    "polyring.gb.generators",
)

SELF_S = (
    "polytope.minimal_nonfaces", "polytope.validate_polytope",
    "polytope.ascending_faces", "polytope.order_vertices",
    "charmap.validate_charmap", "charmap.dual_basis",
    "intlinalg.rat_rank", "intlinalg.rat_det", "intlinalg.rat_inverse",
    "intlinalg.rat_solve",
    "polyring.buchberger", "polyring.s_polynomial",
    "polyring.standard_monomials", "polyring.reduce", "polyring.render_poly",
    "kring.compute_basis", "kring.build_presentation", "kring.invert_unit",
    "kring.evaluate_in_quotient", "kring.ring_map_check",
    "bott.bott_equivalence", "bott.laurent_rank", "bott.involution_check",
    "bott.bott_charmap", "bott.presentation",
    "jsonio.parse", "jsonio.report", "jsonio.dumps", "cli.main",
)

END_TO_END = {"wall_s": "s", "instance_s.p50": "s", "instance_s.tail": "s",
              "frontier_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = dict(
    {f"{name}.self_s": "s" for name in SELF_S},
    **{"intlinalg.eliminations": "count", "intlinalg.distinct_ratio": "ratio",
       "polyring.buchberger.calls": "count",
       "polyring.buchberger.distinct_ratio": "ratio",
       "polyring.s_polynomial.calls": "count", "polyring.reduce.calls": "count",
       "polyring.gb.generators": "count", "polyring.gb.max_coeff_bits": "bit",
       "kring.quotient_basis.calls": "count", "jsonio.report_bytes": "byte",
       "trace.overhead_s": "s"})


def load_ktoric():
    """Import the package from the checkout's own source tree."""
    if not (SRC / "ktoric" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ktoric sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ktoric.cli
    if Path(ktoric.__file__).resolve().parent != (SRC / "ktoric").resolve():
        sys.exit(f"perfbench: imported ktoric from {ktoric.__file__}, not {SRC}")
    return ktoric.cli


def load_pins():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


# -- one instance ---------------------------------------------------------------


def write_inputs(inst, workdir):
    folder = workdir / inst.label
    folder.mkdir(parents=True)
    paths = []
    for name, doc in inst.files:
        path = folder / name
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths.append(str(path))
    return [inst.command, *paths, *inst.options]


def _integers(values):
    return all(Fraction(v).denominator == 1 for v in values)


def check(inst, code, report):
    """Invariants that hold for every seed; returns a list of problems."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["report is not JSON"]
    want = inst.expect
    problems = []
    if inst.command == "kring":
        if not report["rank"] == report["vertex_count"] == want["vertices"]:
            problems.append(f"rank {report['rank']} != {want['vertices']} vertices")
        if report["warnings"]:
            problems.append(f"warnings {report['warnings']}")
        constants = report["structure_constants"]
        if constants is None:
            problems.append("no structure constants")
        elif want["integral"] and not _integers(row[3] for row in constants):
            problems.append("non-integer structure constants")
        if not want["integral"] and not report["projective_check"]["reduces_to_zero"]:
            problems.append("deformed relation does not reduce to zero")
    elif inst.command == "compare":
        ranks = (report["expected_rank"], report["polytope_rank"],
                 report["laurent_rank"])
        if set(ranks) != {2 ** want["n"]}:
            problems.append(f"ranks {ranks}, want {2 ** want['n']}")
        if report["isomorphic"] is not True or report["unimodular"] is not True:
            problems.append("not a unimodular isomorphism")
    else:
        if report["rank"] != 2 ** want["n"]:
            problems.append(f"rank {report['rank']}, want {2 ** want['n']}")
        if report["involution_ok"] is not True:
            problems.append("involution check failed")
    return problems


def run_instance(cli, inst, argv):
    """Returns (seconds, sha256 of stdout, problems)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed instance, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.process_time() - start
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    problems = check(inst, code, report)
    if problems and err.getvalue():
        problems.append(err.getvalue().strip())
    return seconds, hashlib.sha256(text.encode("utf-8")).hexdigest(), problems


# -- host speed -----------------------------------------------------------------


def calibrate():
    """CPU seconds of a fixed piece of work shaped like ktoric's hot path:
    Fraction arithmetic into a dict with scattered keys over a few MB.

    The reference machine shares its host, and the CPU time of the same
    instance drifts by a third over tens of seconds with the host's load on
    caches and memory; a cache-resident loop does not feel that drift, this
    one does. It does not depend on ktoric, so a change to the program
    leaves it as it is."""
    gc.collect()
    start = time.process_time()
    values = [Fraction(k, 7) for k in range(20000)]
    table = {}
    for k in range(0, 20000, 3):
        table[k * 2654435761 % 1000003] = values[k] + values[-k]
    seconds = time.process_time() - start
    del values, table
    return seconds


def host_scale(samples, slots):
    """Per instance, the reference time over the median of the calibration
    samples nearest to it, CALIBRATION_WINDOW before and as many after, to
    the power CALIBRATION_EXPONENT: raw CPU seconds times this are seconds
    on the reference machine. One sample is too noisy to scale by; the
    median of a run's samples misses the drift within the run."""
    w = CALIBRATION_WINDOW
    return [(CALIBRATION_REF_S / statistics.median(samples[max(0, k - w + 1):k + 1 + w]))
            ** CALIBRATION_EXPONENT for k in slots]


# -- a run -------------------------------------------------------------------------


class Session:
    """Imported package, generated inputs and warm-up: everything before the
    first timed instance."""

    def __init__(self, workload, seed, passes):
        self.cli = load_ktoric()
        self.instances = workloads.instances(workload, seed, passes)
        self.workdir = WORK / str(os.getpid())
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.argv = [write_inputs(inst, self.workdir) for inst in self.instances]
        warm = workloads.warmup(workload)
        _, _, self.warmup_problems = run_instance(
            self.cli, warm, write_inputs(warm, self.workdir))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    def measure(self, between=None, count=0):
        """One timed sweep over every instance, in list order; returns the
        results, each instance's host scale (`host_scale`) and the host
        scale at each call of `between`. When given, `between` is called,
        untimed, before `count` evenly spaced instances."""
        results, slots, between_slots, samples = [], [], [], [calibrate()]
        since = 0.0
        n = len(self.instances)
        stops = {k * n // count for k in range(count)} if between else set()
        for i, (inst, argv) in enumerate(zip(self.instances, self.argv)):
            if i in stops:
                between()
                between_slots.append(len(samples) - 1)
            if since >= CALIBRATE_EVERY_S:
                samples.append(calibrate())
                since = 0.0
            results.append(run_instance(self.cli, inst, argv))
            slots.append(len(samples) - 1)
            since += results[-1][0]
        samples.append(calibrate())
        return (results, host_scale(samples, slots),
                host_scale(samples, between_slots))


def pin_problems(instances, digests, pins):
    """Digest mismatches against the pins; pass 0 must be pinned in full."""
    problems = {}
    for inst, digest in zip(instances, digests):
        pinned = pins.get(inst.label)
        if pinned is None and inst.label.startswith("p0."):
            problems[inst.label] = "no pinned digest"
        elif pinned is not None and pinned != digest:
            problems[inst.label] = "report digest differs from the pinned one"
    return problems


def repeated_reports(instances, digests):
    """Instances whose report equals an earlier one: the same computation
    sent twice, which would let a cross-call cache win what real use does
    not share."""
    first = {}
    problems = {}
    for inst, digest in zip(instances, digests):
        if digest in first:
            problems[inst.label] = f"same report as {first[digest]}"
        first.setdefault(digest, inst.label)
    return problems


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_ABOVE of n samples above
    its nearest-rank value; returns (percentile, 1-based rank)."""
    pct = max(0, math.floor(100 * (n - TAIL_ABOVE) / n))
    return pct, max(1, math.ceil(pct * n / 100))


def summarize(instances, results, scales, passes):
    times = [r[0] * k for r, k in zip(results, scales)]
    per_pass = [0.0] * passes
    for inst, t in zip(instances, times):
        per_pass[inst.pass_index] += t
    ordered = sorted(times)
    pct, rank = tail_percentile(len(times))
    frontier = [t for inst, t in zip(instances, times) if inst.frontier]
    return {
        "wall_s": statistics.median(per_pass),
        "instance_s.p50": statistics.median(times),
        "instance_s.tail": ordered[rank - 1],
        "frontier_s": statistics.median(frontier),
    }, pct


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_sampler(args, samples):
    """A function that appends to `samples` the CPU time of one fresh
    interpreter that starts, imports, generates the inputs and runs the
    warm-up instance, then exits. The samples are taken between timed
    instances, spread over the run: the host's speed drifts over seconds, so
    samples taken back to back would all share one phase of it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]

    def sample():
        start = _children_cpu()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        samples.append(_children_cpu() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return sample


def trace_instances(cli, instances, argvs):
    """Run the instances with every layer wrapped; returns (tracer, results)."""
    tracer = Tracer()
    results = []
    with tracer:
        for inst, argv in zip(instances, argvs):
            tracer.instance = inst.label
            results.append(run_instance(cli, inst, argv))
    return tracer, results


def layer_metrics(tracer):
    s = tracer.grouped_self_s()
    calls = tracer.calls
    metrics = {f"{name}.self_s": s.get(name, 0.0) for name in SELF_S}
    metrics.update({
        "intlinalg.eliminations": sum(calls[n] for n in ELIMINATIONS),
        "intlinalg.distinct_ratio": tracer.distinct_ratio("intlinalg", ELIMINATIONS),
        "polyring.buchberger.calls": calls["polyring.buchberger"],
        "polyring.buchberger.distinct_ratio":
            tracer.distinct_ratio("polyring.buchberger", ("polyring.buchberger",)),
        "polyring.s_polynomial.calls": calls["polyring.s_polynomial"],
        "polyring.reduce.calls": calls["polyring.reduce"],
        "polyring.gb.generators": tracer.gb_generators,
        "polyring.gb.max_coeff_bits": tracer.gb_max_coeff_bits,
        "kring.quotient_basis.calls": calls["kring.quotient_basis"],
        "jsonio.report_bytes": tracer.report_bytes,
    })
    return metrics


def traced_pass(args, out_path):
    """Body of the traced child: the same pass with every layer wrapped."""
    session = Session(args.workload, args.seed, args.passes)
    try:
        tracer, results = trace_instances(session.cli, session.instances,
                                          session.argv)
    finally:
        session.close()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = {
        "metrics": layer_metrics(tracer),
        "missing_calls": [n for n in EXPECTED_CALLS[args.workload]
                          if not tracer.calls[n]],
        "overhead_s": tracer.overhead_s / args.passes,
        "digests": [r[1] for r in results],
        "problems": {inst.label: r[2] for inst, r in
                     zip(session.instances, results) if r[2]},
        "self_s": dict(tracer.grouped_self_s()),
    }
    out_path.write_text(json.dumps(result), encoding="utf-8")


def run_traced_child(args):
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"traced-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--traced-child", str(out_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError("traced run failed")
        return json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the seed the digests are pinned for)")
    ap.add_argument("--seconds", type=int, default=30,
                    help="measuring time, rounded to whole passes (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced-child", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_ktoric()
    pins = load_pins()
    if args.seed is None:
        args.seed = pins["default_seed"]
    args.passes = workloads.pass_count(args.workload, args.seconds)

    if args.traced_child is not None:
        traced_pass(args, args.traced_child)
        return 0
    if args.setup_only:
        Session(args.workload, args.seed, args.passes).close()
        return 0

    setup_samples = []
    session = Session(args.workload, args.seed, args.passes)
    try:
        results, scales, setup_scales = session.measure(
            None if args.trace else setup_sampler(args, setup_samples),
            SETUP_REPEATS)
    finally:
        session.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    instances = session.instances
    failures = {inst.label: r[2] for inst, r in zip(instances, results) if r[2]}
    if session.warmup_problems:
        failures["warmup"] = session.warmup_problems
    digests = [r[1] for r in results]
    failures.update(repeated_reports(instances, digests))
    if args.seed == pins["default_seed"]:
        failures.update(pin_problems(instances, digests,
                                     pins["digests"][args.workload]))
    metrics, pct = summarize(instances, results, scales, args.passes)
    raw_s = sum(r[0] for r in results)
    scale = sum(r[0] * k for r, k in zip(results, scales)) / raw_s

    if args.trace:
        traced = run_traced_child(args)
        if traced["digests"] != digests:
            failures["trace"] = "traced reports differ from untraced ones"
        if traced["missing_calls"]:
            failures["tracer"] = f"no calls recorded for {traced['missing_calls']}"
        failures.update(traced["problems"])
        layer = traced["metrics"]
        layer["trace.overhead_s"] = traced["overhead_s"]
        total = sum(traced["self_s"].values())
        top = sorted(traced["self_s"].items(), key=lambda kv: -kv[1])[:6]
        print("largest self times: " + ", ".join(
            f"{name} {100 * s / total:.1f}%" for name, s in top))
        out_metrics, units = layer, PER_LAYER
    else:
        setup_s = statistics.median(
            t * k for t, k in zip(setup_samples, setup_scales))
        out_metrics = dict(metrics, setup_s=setup_s,
                           peak_rss_mb=peak_rss_mb)
        units = END_TO_END

    attempted = len(results)
    failed = sum(1 for inst in instances if inst.label in failures)
    for label, why in sorted(failures.items()):
        print(f"FAILED {label}: {why}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} instances in "
          f"{args.passes} pass(es); fail_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4f}; instance_s.tail is p{pct} of {attempted}; "
          f"{raw_s / args.passes:.3f} s of CPU time per pass, scaled by "
          f"{scale:.3f} to the reference machine")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": out_metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
