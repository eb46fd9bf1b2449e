"""Benchmark of the binoids package: three workloads, each aimed at one layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The seed generates a corpus of input files under `bench/out/corpus/`, each
with its expected answer computed by `oracle.py`, which never imports the
package.  Every case then runs in this process, one after another, either
through `binoids.cli.main` with stdout captured or, for the Čech route,
which has no command line verb, through `local_picard_cech` on the parsed
file.  Each case has a cap of CASE_CAP_S seconds, twice the longest case
of the seed, except the cases that the seed never finishes, which carry
their own short cap (corpus.HANG_CAP_S) and run last in a pass.  A case
that hits its cap is a timed-out failure and counts as its cap.  Passes
over the corpus repeat until S seconds have gone, at least MIN_PASSES
times; a case that took over LONG_CASE_S in the first pass is not run
again and counts with that time in every pass.  Every other time is
reported at reference speed: it is scaled by CALIBRATION_REF_S over the
mean time of a fixed calibration kernel run before, during (on SIGPROF)
and after it, which removes much of the drift of a shared host.  Set-up
(import, corpus, one warm-up case per verb) is done SETUPS times and
reported as a median.  Peak memory is read before the first case with
its own cap has run, so a case cut off part way does not count.

Workloads:
  highdim-cech    few-vertex high-dimensional complexes; the time goes into
                  integer elimination of Čech and simplicial cochain complexes
  wide-spectrum   cycles, paths, stars on 10-16 vertices and full simplices;
                  the time goes into 2^n scans, heights and crosscuts
  integral-units  integral presentations; the time goes into the bounded
                  unit search, thousands of tiny Smith normal forms

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1, after one untraced pass, the layers are wrapped
from here (see tracing.py) and it carries the per-layer metrics.  A case
fails when it raises, exits with an unexpected code, prints a wrong
answer or times out in any of its runs.  `attempted` and `failed` in the
result line count corpus cases, not runs, so that they depend on the seed
alone and not on how many passes fit in S seconds.  `correct` is false
when a case gives a wrong answer or raises, unless the outcome is a known
defect of the seed listed in corpus.py.  Results and spans go to `bench/out/`.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import corpus
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# the longest case, picard-general on x+z=y+w smashed with one generator,
# takes about 30 s at reference speed
CASE_CAP_S = 60.0
# a case that takes longer, at reference speed, runs once per measurement
LONG_CASE_S = 3.0
MIN_PASSES = 2
SETUPS = 9
# calibrate() time that defines reference speed: about twice its median on
# a 2-vCPU 2.0 GHz Xeon host with Python 3.11, so reference is a slow host
CALIBRATION_REF_S = 0.0004
# a running case is calibrated again after every SAMPLE_S of CPU time
SAMPLE_S = 0.05


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the package eats it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def calibrate():
    """Seconds for a fixed piece of pure-Python work on tuples, sets and dicts.

    The host is shared: its speed drifts by a quarter between runs a
    minute apart, and from one case to the next.  Every reported time t is
    scaled to reference speed as t * CALIBRATION_REF_S / c, with c the mean
    of the calibrations timed before, during and after it.  The work is a
    mod-2 reduction of the boundary of RP^2, the kind of work the package
    does, which tracks the host better than plain integer arithmetic.  The
    best of five repetitions keeps a momentary stall out of c, and the
    collector is off so that it does not sweep a large case's heap in here.
    """
    best = float("inf")
    gc.disable()
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(3):
            faces = sorted({f for facet in corpus.RP2 for k in (1, 2, 3)
                            for f in itertools.combinations(facet, k)}, key=lambda f: (len(f), f))
            index = {f: i for i, f in enumerate(faces)}
            pivots = {}
            for f in faces:
                column = {index[f[:j] + f[j + 1:]] for j in range(len(f))} if len(f) > 1 else set()
                while column and max(column) in pivots:
                    column ^= pivots[max(column)]
                if column:
                    pivots[max(column)] = column
        best = min(best, time.perf_counter() - start)
    gc.enable()
    return best


class Sampler:
    """Calibrations taken on SIGPROF while a case runs.

    A long case is then scaled by the speed the host had all along, not
    only at its two ends; the time spent here is taken out of the case.
    """

    def __init__(self):
        self.calibrations = []
        self.spent = 0.0

    def __call__(self, signum, frame):
        start = time.perf_counter()
        self.calibrations.append(calibrate())
        self.spent += time.perf_counter() - start


SAMPLER = Sampler()


def import_package():
    """Import binoids from this checkout's src/, afresh on every call."""
    src = os.path.join(ROOT, "src")
    for name in [n for n in sys.modules if n == "binoids" or n.startswith("binoids.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    package = importlib.import_module("binoids")
    importlib.import_module("binoids.cli")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise ImportError("binoids was imported from %s, not from %s" % (package.__file__, src))
    return package


def run_case(package, case):
    """Run one case under the cap; return (status, seconds, error or None).

    status is "pass", "timeout", "known" (a listed seed defect), "wrong"
    or "error".  The calibrations taken meanwhile are left in SAMPLER.
    """
    out = io.StringIO()
    SAMPLER.__init__()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, case["cap"] or CASE_CAP_S)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if "cech" in case:
                    groups = package.cech.local_picard_cech(package.cli.load_input(case["cech"]))
                else:
                    code = package.cli.main(case["argv"])
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return "timeout", time.perf_counter() - start, None
    except Exception as e:
        return "error", time.perf_counter() - start - SAMPLER.spent, repr(e)
    elapsed = time.perf_counter() - start - SAMPLER.spent
    if "cech" in case:
        got = [(g.free_rank, tuple(g.invariant_factors)) for g in groups]
        return ("pass" if got == case["groups"] else "wrong"), elapsed, None
    text = out.getvalue()
    if code == 0 and text == case["stdout"]:
        return "pass", elapsed, None
    known = case["tolerated"]
    if known and code == known[0] and known[1] in (None, text):
        return "known", elapsed, None
    return "wrong", elapsed, "exit %s, stdout %r" % (code, text[:200])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(package, cases, tracer=None, skip=frozenset()):
    """One pass; returns ([(status, seconds, error) or None if skipped],
    calibrations, peak MB before the first case with its own cap).

    The seconds are at reference speed."""
    outcomes = []
    before = calibrate()
    calibrations = [before]
    rss = None
    for i, case in enumerate(cases):
        if case["cap"] is not None and rss is None:
            rss = peak_rss_mb()
        if i in skip:
            outcomes.append(None)
            continue
        if tracer is not None:
            tracer.case = i
        gc.collect()  # each case starts from a collected heap, as a fresh process would
        status, seconds, error = run_case(package, case)
        if tracer is not None:
            tracer.stack.clear()  # an alarm between two statements can strand a frame
        inside = SAMPLER.calibrations
        after = calibrate()
        if status != "timeout":  # the cap is a budget in real seconds
            seconds *= CALIBRATION_REF_S / statistics.mean([before, after] + inside)
        outcomes.append((status, seconds, error))
        calibrations += inside + [after]
        before = after
    if rss is None:
        rss = peak_rss_mb()
    return outcomes, calibrations, rss


def measure(package, cases, seconds, min_passes, tracer=None):
    """Passes until `seconds` have gone and `min_passes` are done.

    Untraced, a case over LONG_CASE_S in the first pass runs only there:
    the time goes into repeating the short cases, whose times drift more.
    """
    start = time.perf_counter()
    passes = [run_pass(package, cases, tracer)]
    skip = frozenset()
    if tracer is None:
        skip = frozenset(i for i, (_, t, _) in enumerate(passes[0][0]) if t > LONG_CASE_S)
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(package, cases, tracer, skip))
    return passes


def full_passes(passes):
    """Every pass as outcomes of all cases: a case left out counts as it did first."""
    first = passes[0][0]
    return [[o or f for o, f in zip(outcomes, first)] for outcomes, _, _ in passes]


def setup(workload, seed):
    """Import, generate the corpus, run one case of each verb; return seconds."""
    calibrations = [calibrate()]
    spent = 0.0
    start = time.perf_counter()
    package = import_package()
    cases = corpus.build(workload, os.path.join(OUT, "corpus", workload), seed)
    seen = set()
    for case in cases:
        verb = case["argv"][0] if "argv" in case else "cech"
        if verb not in seen and case["cap"] is None:
            seen.add(verb)
            run_case(package, case)
            calibrations += SAMPLER.calibrations
            spent += SAMPLER.spent
    seconds = time.perf_counter() - start - spent
    calibrations.append(calibrate())
    return seconds * CALIBRATION_REF_S / statistics.mean(calibrations), package, cases


def provenance(seed, workload):
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "binoids")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=corpus.names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGPROF, SAMPLER)
    try:
        import_package()
    except ImportError as e:
        print("error: cannot import the package: %s" % e, file=sys.stderr)
        return 1

    setups = []
    for _ in range(SETUPS):
        seconds, package, cases = setup(args.workload, args.seed)
        setups.append(seconds)

    tracer = None
    if args.trace:
        start = time.perf_counter()
        untraced = full_passes(measure(package, cases, 0, 0))
        tracer = tracing.Tracer()
        tracer.install()
        left = args.seconds - (time.perf_counter() - start)
        passes = measure(package, cases, left, 0, tracer)
    else:
        passes = measure(package, cases, args.seconds, MIN_PASSES)

    full = full_passes(passes)
    samples = [t for outcomes in full for _, t, _ in outcomes]
    walls = [sum(t for _, t, _ in outcomes) for outcomes in full]
    runs_of = [[outcomes[i] for outcomes, _, _ in passes if outcomes[i] is not None]
               for i in range(len(cases))]
    statuses = [s for runs in runs_of for s, _, _ in runs]
    passed = sum(1 for runs in runs_of if all(s == "pass" for s, _, _ in runs))
    correct = all(s in ("pass", "timeout", "known") for s in statuses)
    deciles = statistics.quantiles(samples, n=10)

    if args.trace:
        speed = CALIBRATION_REF_S / statistics.median(c for _, cs, _ in passes for c in cs)
        metrics = tracer.metrics(len(passes), speed)
        overhead = statistics.median(walls) - statistics.median(sum(t for _, t, _ in o) for o in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        tracer.write(os.path.join(OUT, args.workload + "-spans.csv.gz"),
                     [case["id"] for case in cases])
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "case_p50_ms": (1e3 * statistics.median(samples), "ms"),
            "case_p90_ms": (1e3 * deciles[8], "ms"),
            "passed_ratio": (passed / len(cases), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (passes[0][2], "MB"),
        }

    info = provenance(args.seed, args.workload)
    info.update(trace=args.trace, passes=len(passes), cases_per_pass=len(cases),
                samples=len(samples), samples_beyond_p90=sum(1 for t in samples if t > deciles[8]),
                runs=len(statuses), case_cap_s=CASE_CAP_S, timeouts=statuses.count("timeout"))
    per_case = {case["id"]: [[s, round(t, 6)] + ([detail] if detail else [])
                             for s, t, detail in runs]
                for case, runs in zip(cases, runs_of)}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-trace%d.json" % (args.workload, args.trace)), "w") as handle:
        json.dump({"info": info, "setup_runs_s": setups, "pass_walls_s": walls,
                   "metrics": metrics, "cases": per_case}, handle, indent=1)

    print("# " + json.dumps(info))
    for cid, runs in per_case.items():
        bad = sorted({r[0] for r in runs if r[0] != "pass"})
        if bad:
            detail = next((r[2] for r in runs if len(r) > 2), "")
            print("# failed %s: %s %s" % (cid, ",".join(bad), detail))
    for name, (value, unit) in metrics.items():
        print("# %-40s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": len(cases),
        "failed": len(cases) - passed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
