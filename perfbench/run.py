"""brw benchmark: time to a verified report, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from ./src).
Each workload's spec files are generated from the seed, then the real CLI
(`python -m brw.cli`) runs on them, one fresh process per invocation, one
invocation at a time. Every report is checked (checks.py) and hashed.

--trace 0  times several set-up probes and as many rounds of the workload as
           fit in S seconds (at least one) and reports the end-to-end metrics.
--trace 1  runs one untraced and one traced round (tracer.py), requires their
           reports to be byte-identical and reports the per-layer metrics.

Human-readable lines go first; the last line is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_chartable, check_gutkin
from inputs import DEFAULT_CORPUS, write_specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "corpus_both": ("gutkin", "monomial", DEFAULT_CORPUS),
    "chartable_mid": ("chartable", "monomial", ("b2_f7", "row4_f3", "b3_f3")),
    "rebased_both": ("gutkin", "dense", ("b2_f5", "b3_f2", "pattern3_f3", "b3_f3", "b4_f2")),
}

SETUP_PROBES = 15
DEADLINE_S = 170      # the whole run, set-up included
JOB_TIMEOUT_S = 150

# counts measured on corpus_both at seed 0 when the benchmark was defined;
# printed next to the traced counts to show the wrapping reached every call
BASELINE_COUNTS = {
    "algebra.mul_calls": 1_281_566,
    "exact.cyclotomic_new": 321_575,
    "groups.classes_calls": 1_824,
    "gutkin.decompose_calls": 106,
}


class Run:
    """One benchmark run: its work directory, clock and job tallies."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.start = time.perf_counter()
        self.work = os.path.join(ROOT, ".perfbench_work", f"{workload}-s{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = os.path.join(self.work, "out")
        os.makedirs(self.out)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.pop("BRW_CAP_ORDER", None)
        self.attempted = 0
        self.failed = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, cmd):
        """(returncode or None on timeout, stdout, wall seconds) of one child."""
        self.attempted += 1
        timeout = max(1.0, min(JOB_TIMEOUT_S, DEADLINE_S - self.elapsed()))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stdout.write(proc.stderr[-2000:])
        return proc.returncode, proc.stdout, wall

    def fail(self, what):
        self.failed += 1
        print(f"FAIL {what}")


def make_jobs(run, seed):
    """Write the seed's spec files; returns ([(job id, cli args, report path,
    check)] for one round of the workload, [(name, path, spec)])."""
    kind, basis, names = WORKLOADS[run.workload]
    specs = write_specs(ROOT, os.path.join(run.work, "specs"), names, basis, seed)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        degrees = json.load(f)["degrees"]
    if kind == "gutkin":
        args = ["gutkin", "--mode", "both", "--out", run.out] + [path for _, path, _ in specs]
        pairs = [(name, spec) for name, _, spec in specs]
        return [("gutkin", args, os.path.join(run.out, "gutkin.json"),
                 lambda text: check_gutkin(text, pairs, degrees))], specs
    jobs = []
    for name, path, spec in specs:
        jobs.append((name, ["chartable", "--out", run.out, path],
                     os.path.join(run.out, f"chartable_{name}.csv"),
                     lambda text, spec=spec, name=name: check_chartable(text, spec, degrees[name])))
    return jobs, specs


def run_round(run, jobs, trace_dir=None):
    """Run every job once; returns (wall seconds, sha256 of the reports)."""
    digest = hashlib.sha256()
    total = 0.0
    for job_id, args, report, check in jobs:
        if os.path.exists(report):
            os.remove(report)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "brw.cli"] + args
        else:
            trace = os.path.join(trace_dir, f"{job_id}.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace, job_id, "--"] + args
        code, _, wall = run.spawn(cmd)
        total += wall
        if code is None:
            run.fail(f"{job_id}: timed out")
            continue
        if code != 0:
            run.fail(f"{job_id}: exit code {code}")
            continue
        with open(report, "rb") as f:
            data = f.read()
        digest.update(data)
        problems = check(data.decode("utf-8"))
        if problems:
            run.fail(f"{job_id}: " + "; ".join(problems[:5]))
    return total, digest.hexdigest()


def measure_setup(run, specs):
    """Median set-up time over SETUP_PROBES fresh processes, after one warm-up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py")] + [p for _, p, _ in specs]
    times = []
    for i in range(SETUP_PROBES + 1):
        code, out, _ = run.spawn(cmd)
        try:
            value = json.loads(out.strip().splitlines()[-1])["setup_s"]
        except (IndexError, KeyError, ValueError):
            value = None
        if code != 0 or value is None:
            run.fail(f"setup probe: exit code {code}")
        elif i > 0:
            times.append(value)
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in times)}")
    return statistics.median(times) if times else float("nan")


def tail(values):
    """(label, value) of the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"none ({n} samples, needs 11)", None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def end_to_end(run, jobs, specs, seconds):
    setup_s = measure_setup(run, specs)
    rounds, digests = [], []
    measured = 0.0
    while not rounds or (measured < seconds
                         and run.elapsed() + rounds[-1] < DEADLINE_S - 10):
        wall, digest = run_round(run, jobs)
        rounds.append(wall)
        digests.append(digest)
        measured += wall
    if len(set(digests)) != 1:
        run.fail("reports differ between rounds of the same seed")
    label, value = tail(rounds)
    print(f"wall_s rounds: {', '.join(f'{w:.4f}' for w in rounds)}")
    print(f"wall_s median {statistics.median(rounds):.4f} s, {label}"
          + (f" {value:.4f} s" if value is not None else "") + f", runs {len(rounds)}")
    print(f"report sha256 {run.workload}: {digests[0]}")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced round
# ---------------------------------------------------------------------------

class Trace:
    """Span and counter totals over the trace files of one traced round."""

    def __init__(self, paths):
        self.counts, self.notes = {}, {}
        self.incl, self.self_s, self.calls, self.ok = {}, {}, {}, {}
        self.durations = {}   # name -> [inclusive seconds per call]
        self.under = {}       # (name, ancestor name) -> calls
        self.sites = set()
        for path in paths:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            self.sites.add(data["binding_sites"])
            for table, src in ((self.counts, data["counts"]), (self.notes, data["notes"])):
                for k, v in src.items():
                    table[k] = table.get(k, 0) + v
            self._add_spans(data["spans"])

    def _add_spans(self, spans):
        child = [0.0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (parent, name, start, end, ok) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.ok[name] = self.ok.get(name, 0) + ok
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            self.durations.setdefault(name, []).append(dur)
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][1])
                parent = spans[parent][0]
            if name not in ancestors:   # count recursive time once
                self.incl[name] = self.incl.get(name, 0.0) + dur
            for a in ancestors:
                self.under[(name, a)] = self.under.get((name, a), 0) + 1

    def s(self, name):
        return self.incl.get(name, 0.0)

    def n(self, name):
        return self.calls.get(name, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(trace, overhead):
    t = trace
    p50 = p90 = 0.0
    wit = [d * 1000 for d in t.durations.get("gutkin.gutkin_decompose", [])]
    if len(wit) >= 2:
        deciles = statistics.quantiles(wit, n=10)
        p50, p90 = statistics.median(wit), deciles[8]
    classes = t.n("groups.conjugacy_classes")
    distinct = t.notes.get("groups.classes_distinct", 0)
    return {
        "exact.cyclotomic_new": (t.counts.get("exact.Cyclotomic.__init__", 0), "count"),
        "exact.rref_calls": (t.n("exact.rref"), "count"),
        "exact.rref_s": (t.s("exact.rref"), "s"),
        "algebra.mul_calls": (t.counts.get("algebra.Algebra.mul", 0), "count"),
        "algebra.from_spec_s": (t.s("algebra.algebra_from_spec"), "s"),
        "algebra.decomposition_s": (t.s("algebra.basic_decomposition"), "s"),
        "algebra.subalgebras_s": (t.s("algebra.enumerate_subalgebras"), "s"),
        "algebra.subalgebras_found": (t.notes.get("algebra.subalgebras_found", 0), "count"),
        "groups.generators_s": (t.s("groups.FiniteGroup.generators"), "s"),
        "groups.classes_s": (t.s("groups.conjugacy_classes"), "s"),
        "groups.classes_calls": (classes, "count"),
        "groups.classes_distinct": (distinct, "count"),
        "groups.classes_repeat_ratio": (_ratio(classes, distinct), "ratio"),
        "groups.char_orbit_s": (t.s("groups.char_orbit"), "s"),
        "groups.linear_characters_s": (t.s("groups.linear_characters"), "s"),
        "groups.groups_built": (t.counts.get("groups.FiniteGroup.__init__", 0), "count"),
        "chars.char_table_s": (t.s("chars.char_table"), "s"),
        "chars.char_table_calls": (t.n("chars.char_table"), "count"),
        "chars.verify_s": (t.s("chars.CharTable.verify"), "s"),
        "chars.inner_product_s": (t.s("chars.inner_product"), "s"),
        "chars.inner_product_calls": (t.n("chars.inner_product"), "count"),
        "chars.induce_s": (t.s("chars.induce"), "s"),
        "chars.induce_calls": (t.n("chars.induce"), "count"),
        "chars.clifford_s": (t.s("chars.clifford_correspondent"), "s"),
        "chars.clifford_induce_per_match": (
            _ratio(t.under.get(("chars.induce", "chars.clifford_correspondent"), 0),
                   t.ok.get("chars.clifford_correspondent", 0)), "ratio"),
        "gutkin.decompose_s": (t.s("gutkin.gutkin_decompose"), "s"),
        "gutkin.decompose_calls": (t.n("gutkin.gutkin_decompose"), "count"),
        "gutkin.witness_ms_p50": (p50, "ms"),
        "gutkin.witness_ms_p90": (p90, "ms"),
        "gutkin.brute_s": (t.s("gutkin.verify_gutkin_brute"), "s"),
        "gutkin.brute_hit_ratio": (
            _ratio(t.notes.get("gutkin.brute_witnesses", 0),
                   t.under.get(("chars.induce", "gutkin.verify_gutkin_brute"), 0)), "ratio"),
        "gutkin.certify_s": (t.s("gutkin.certify_stabilizer_subalgebra"), "s"),
        "localfield.admissible_s": (t.s("localfield.is_admissible_shape"), "s"),
        "cli.main_self_s": (t.self_s.get("cli.main", 0.0), "s"),
        "trace_overhead_frac": (overhead, "ratio"),
    }


def traced(run, jobs):
    plain_wall, plain_digest = run_round(run, jobs)
    trace_dir = os.path.join(run.work, "trace")
    os.makedirs(trace_dir)
    traced_wall, traced_digest = run_round(run, jobs, trace_dir)
    same = plain_digest == traced_digest
    print(f"report sha256 {run.workload}: untraced {plain_digest}, traced {traced_digest}")
    print(f"traced reports byte-identical to untraced: {'yes' if same else 'NO'}")
    if not same:
        run.fail("traced reports differ from untraced reports")
    paths = [os.path.join(trace_dir, f"{job[0]}.json") for job in jobs]
    trace = Trace([p for p in paths if os.path.exists(p)])
    print(f"wrapped binding sites per traced process: {trace.sites}")
    overhead = traced_wall / plain_wall - 1 if plain_wall else 0.0
    print(f"wall_s untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s")
    print("self time by span (s):")
    for name, value in sorted(trace.self_s.items(), key=lambda kv: -kv[1])[:15]:
        print(f"  {name:40s} {value:9.4f}  calls {trace.calls[name]}")
    metrics = per_layer(trace, overhead)
    if run.workload == "corpus_both":
        for key, base in BASELINE_COUNTS.items():
            print(f"count {key} = {metrics[key][0]} (at definition, seed 0: {base})")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "brw", "cli.py")):
        print(f"no brw sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    jobs, specs = make_jobs(run, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} invocation(s) per round")
    if args.trace:
        metrics = traced(run, jobs)
    else:
        metrics = end_to_end(run, jobs, specs, args.seconds)
    print(f"fail_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    correct = run.failed == 0
    if correct:
        shutil.rmtree(run.work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
