"""Benchmark of the multispace verifier: one workload, one seed, one run.

    python3 bench/run.py --workload {series,verify,exact,cli_cold} \\
        --seed N --seconds S --trace {0,1}

One process, one client in a closed loop: each instance starts when the
previous one has reached its verdict.  ``cli_cold`` runs one CLI child at a
time.  The run prints a JSON line of details (environment, seed, digest,
tail percentile, trace summary) and then, as its last line, the result
object with the metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from tracer import MODULES, Tracer, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "multispace"

SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def import_lib():
    return SimpleNamespace(**{m: importlib.import_module(f"multispace.{m}") for m in (*MODULES, "errors")})


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def setup(workload: str, seed: int, smoke: bool, workdir: Path, tracer=None):
    """Import the package and build the workload's inputs; returns the time
    taken and the instances."""
    gc.collect()
    start = time.perf_counter()
    lib = import_lib()
    if tracer is not None:
        tracer.install()
    items = WORKLOADS[workload](lib, random.Random(f"{workload}:{seed}"), smoke, str(workdir))
    return time.perf_counter() - start, items


def spawn(argv, workdir: Path):
    """Run one child to completion; (seconds, exit code, stdout, max RSS KiB)."""
    out, err = workdir / "child.out", workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return elapsed, os.waitstatus_to_exitcode(status), out.read_text(encoding="utf-8"), usage.ru_maxrss


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# -- one pass over the instances ------------------------------------------------

class Pass:
    def __init__(self):
        self.times: list[float] = []
        self.tokens: dict[str, object] = {}
        self.failures: list[str] = []
        self.child_rss_kib = 0
        self.exit_mismatch = 0
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self.wall = 0.0

    def record(self, name, seconds, ok, token):
        self.times.append(seconds)
        self.tokens[name] = token
        if not ok:
            self.failures.append(name)

    def digest(self) -> str:
        text = json.dumps(sorted(self.tokens.items()), sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def checked(check, result):
    try:
        return check(result)
    except Exception as exc:  # a malformed result is a failed instance
        return False, ["check raised", type(exc).__name__, str(exc)[:200]]


def library_pass(items, order, tracer=None) -> Pass:
    p = Pass()
    clock = time.perf_counter
    begin = clock()
    for i in order:
        inst = items[i]
        if tracer is not None:
            tracer.instance = inst.name
        start = clock()
        try:
            result = inst.run()
        except Exception as exc:
            p.record(inst.name, clock() - start, False, ["raised", type(exc).__name__, str(exc)[:200]])
            continue
        elapsed = clock() - start
        p.record(inst.name, elapsed, *checked(inst.check, result))
    p.wall = clock() - begin
    if tracer is not None and tracer.mode == "count":
        p.counts.update(tracer.counts())
    return p


def cli_pass(items, order, workdir: Path, mode=None) -> Pass:
    """One child per command: plain ``python -m multispace.cli`` when
    ``mode`` is None, else the shim in that mode."""
    p = Pass()
    begin = time.perf_counter()
    trace = workdir / "child-trace.json"
    for i in order:
        name, argv, code, check = items[i]
        if mode is None:
            cmd = ["-m", "multispace.cli", *argv]
        else:
            cmd = [str(HERE / "cli_shim.py"), mode, str(trace), *argv]
        trace.unlink(missing_ok=True)
        elapsed, got, stdout, rss = spawn(cmd, workdir)
        p.child_rss_kib = max(p.child_rss_kib, rss)
        p.exit_mismatch += got != code
        p.record(name, elapsed, *checked(check, (got, stdout)))
        if mode in ("span", "count") and not trace.exists():
            p.failures.append(name)  # the shim died before writing its trace
        elif mode == "span":
            data = json.loads(trace.read_text(encoding="utf-8"))
            p.self_s.update(data["self_s"])
            base = len(p.spans)
            p.spans.extend([label, s, e, None if parent is None else base + parent, name]
                           for label, s, e, parent, _ in data["spans"])
        elif mode == "count":
            p.counts.update(json.loads(trace.read_text(encoding="utf-8"))["counts"])
    p.wall = time.perf_counter() - begin
    return p


# -- metrics ------------------------------------------------------------------

def tail_percentile(per_pass: int) -> int:
    """Highest ladder percentile with at least ten of one pass's samples
    beyond it.  Fixed by the instance count, so a faster program does not
    change which percentile is reported."""
    return next((q for q in TAIL_LADDER if per_pass * (100 - q) / 100 >= TAIL_MIN_BEYOND), 50)


def percentile(sorted_values, q) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def end_to_end(passes, setup_samples, peak_rss_kib, per_pass) -> tuple[dict, dict]:
    times = sorted(t for p in passes for t in p.times)
    attempted = len(times)
    failed = sum(len(p.failures) for p in passes)
    q = tail_percentile(per_pass)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "instances_per_s": (attempted / sum(times), "1/s"),
        "instance_p50_ms": (statistics.median(times) * 1000, "ms"),
        "instance_tail_ms": (percentile(times, q) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    details = {"tail_percentile": q, "samples": attempted,
               "tail_samples_beyond": attempted - math.ceil(q / 100 * attempted),
               "failed_frac": failed / attempted}
    return metrics, details


def layer_metrics(self_s: Counter, setup_self: Counter, counts: dict, extra: dict) -> dict:
    """Every per-layer metric, zero where a workload never reaches the layer."""

    def calls(label):
        return counts.get(f"{label}.calls", 0)

    def own(*labels):
        return sum(self_s.get(label, 0.0) for label in labels)

    def module(name, table):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == name)

    mns = "multigroup.maximal_normal_subgroups"
    materialised = ("multigroup.maximal_normal_series", "multigroup.composition_series")
    m = {
        "core.apply.calls": (calls("core.apply"), "count"),
        "core.identity_scans.calls": (calls("core.group_identity_on") + calls("core.group_inverse_on"), "count"),
        "core.is_group_on.calls": (calls("core.is_group_on"), "count"),
        "core.is_group_on.self_s": (own("core.is_group_on"), "s"),
        "core.automorphisms.self_s": (own("core.automorphisms"), "s"),
        "core.classify_table.self_s": (own("core.classify_table"), "s"),
        "foundations.check_boolean_laws.self_s": (own("foundations.check_boolean_laws"), "s"),
        "multigroup.subgroups_of.calls": (calls("multigroup.subgroups_of"), "count"),
        "multigroup.subgroups_of.self_s": (own("multigroup.subgroups_of"), "s"),
        "multigroup.subgroup_closure.calls": (calls("multigroup.subgroup_closure"), "count"),
        f"{mns}.calls": (calls(mns), "count"),
        f"{mns}.distinct": (counts.get(f"{mns}.distinct", 0), "count"),
        f"{mns}.distinct_ratio": (counts.get(f"{mns}.distinct", 0) / calls(mns) if calls(mns) else 0.0, "ratio"),
        "multigroup.series.self_s": (own(*materialised, "multigroup.series_length_profile"), "s"),
        "multigroup.series.materialised.self_s": (own(*materialised), "s"),
        "multigroup.series.profile.self_s": (own("multigroup.series_length_profile"), "s"),
        "multigroup.is_multigroup.self_s": (own("multigroup.is_multigroup"), "s"),
        "multigroup.coset_partition.self_s": (own("multigroup.coset_partition"), "s"),
        "multigroup.is_normal.self_s": (own("multigroup.is_normal"), "s"),
        "multiring.is_multiring.self_s": (own("multiring.is_multiring"), "s"),
        "multiring.is_multiideal.calls": (calls("multiring.is_multiideal"), "count"),
        "multiring.is_multiideal.self_s": (own("multiring.is_multiideal"), "s"),
        "multiring.decompose_artin.self_s": (own("multiring.decompose_artin"), "s"),
        "multiring.maximal_ideals.calls": (calls("multiring.maximal_ideals"), "count"),
        "multiring.maximal_ideals.distinct": (counts.get("multiring.maximal_ideals.distinct", 0), "count"),
        "multiring.multiideal_chain.self_s": (own("multiring.multiideal_chain"), "s"),
        "multivector.span.calls": (calls("multivector.span"), "count"),
        "multivector.span.self_s": (own("multivector.span"), "s"),
        "multivector.span.vectors_out": (counts.get("multivector.span.vectors_out", 0), "count"),
        "multivector.rank.calls": (calls("multivector.rank"), "count"),
        "multivector.greedy_basis.self_s": (own("multivector.greedy_basis"), "s"),
        "multivector.dim_formula.self_s": (own("multivector.dim_formula"), "s"),
        "multimetric.validate_metric.calls": (calls("multimetric.validate_metric"), "count"),
        "multimetric.validate_metric.self_s": (own("multimetric.validate_metric"), "s"),
        "multimetric.combine_metrics.self_s": (own("multimetric.combine_metrics"), "s"),
        "multimetric.fixed_points.self_s": (own("multimetric.fixed_points"), "s"),
        "io.load.self_s": (own("io.load"), "s"),
        "io.save.self_s": (own("io.save"), "s"),
        "io.bytes_read": (counts.get("io.bytes_read", 0), "B"),
        "io.bytes_written": (counts.get("io.bytes_written", 0), "B"),
        "cli.import_s": (extra.get("cli.import_s", 0.0), "s"),
        "cli.interpreter_s": (extra.get("cli.interpreter_s", 0.0), "s"),
        "cli.exit_mismatch": (extra.get("cli.exit_mismatch", 0), "count"),
    }
    errors = {k: v for k, v in counts.items() if ".errors." in k}
    for name in MODULES:
        # constructions run mostly while inputs are built, so set-up counts
        m[f"{name}.self_s"] = (module(name, self_s) + (module(name, setup_self) if name == "constructions" else 0), "s")
        m[f"{name}.errors"] = (module(name, errors), "count")
    for kind in ("size_limit", "internal_check", "other"):
        m[f"errors.{kind}"] = (sum(v for k, v in errors.items() if k.endswith(f".errors.{kind}")), "count")
    m["trace.overhead_s"] = (extra["trace.overhead_s"], "s")
    m["trace.overhead_frac"] = (extra["trace.overhead_frac"], "ratio")
    m["trace.spans"] = (extra["trace.spans"], "count")
    return m


# -- the run --------------------------------------------------------------------

def child_setup(args, workdir: Path) -> float:
    cmd = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    _, code, stdout, _ = spawn(cmd, workdir)
    if code != 0:
        raise RuntimeError(f"set-up child exited with {code}")
    return json.loads(stdout.strip().splitlines()[-1])["setup_s"]


def probe(code: str, workdir: Path) -> float:
    """Median over PROBE_SAMPLES children of ``python -c code``: its printed
    number, or its wall time when it prints none."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        elapsed, exit_code, stdout, _ = spawn(["-c", code], workdir)
        if exit_code != 0:
            raise RuntimeError(f"probe {code!r} exited with {exit_code}")
        samples.append(float(stdout) if stdout.strip() else elapsed)
    return statistics.median(samples)


def timed_passes(run_pass, seconds, between) -> list:
    """Whole passes until the next one would end more than half a pass past
    the deadline: each instance is weighted equally in every metric.
    ``between(elapsed)`` runs before each pass, off the clock."""
    passes = []
    while True:
        between(sum(p.wall for p in passes))
        gc.collect()
        passes.append(run_pass())
        if sum(p.wall for p in passes) + passes[-1].wall / 2 > seconds:
            return passes


def run(args, workdir: Path) -> tuple[dict, dict, bool, int, int]:
    cli = args.workload == "cli_cold"
    details: dict = {}
    span_tracer = Tracer("span") if args.trace else None
    setup_s, items = setup(args.workload, args.seed, args.smoke, workdir, span_tracer)
    if span_tracer is not None:
        span_tracer.uninstall()
    order = list(range(len(items)))
    random.Random(f"order:{args.seed}").shuffle(order)
    gc.freeze()

    def one_pass(mode=None):
        if cli:
            return cli_pass(items, order, workdir, mode)
        tracer = span_tracer if mode == "span" else Tracer("count") if mode == "count" else None
        if tracer is not None:
            tracer.install()
        try:
            return library_pass(items, order, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    if not args.trace:
        setup_samples = [setup_s]

        def sample_setup(elapsed):
            # spread the set-up samples over the run, so that their median
            # sees the same host conditions as the timed passes
            due = (len(setup_samples) - 1) * args.seconds / (SETUP_SAMPLES - 1)
            if len(setup_samples) < SETUP_SAMPLES and elapsed >= due:
                setup_samples.append(child_setup(args, workdir))

        passes = timed_passes(one_pass, args.seconds, sample_setup)
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(child_setup(args, workdir))
        rss = max(p.child_rss_kib for p in passes) if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, details = end_to_end(passes, setup_samples, rss, len(items))
        details["setup_samples_s"] = setup_samples
        repeat_ok = True
    else:
        untraced = one_pass("off")
        traced = one_pass("span")
        counted = [one_pass("count") for _ in range(2)]
        passes = [untraced, traced, *counted]
        repeat_ok = counted[0].counts == counted[1].counts
        spans = traced.spans if cli else span_tracer.spans
        extra = {
            "trace.overhead_s": traced.wall - untraced.wall,
            "trace.overhead_frac": (traced.wall - untraced.wall) / untraced.wall,
            "trace.spans": len(spans),
            "cli.exit_mismatch": sum(p.exit_mismatch for p in passes),
        }
        if cli:
            extra["cli.import_s"] = probe(
                "import time; t = time.perf_counter(); import multispace.cli; print(time.perf_counter() - t)", workdir)
            extra["cli.interpreter_s"] = probe("pass", workdir)
        pass_self = traced.self_s if cli else self_times(spans)
        metrics = layer_metrics(pass_self, self_times(spans, setup=True), counted[0].counts, extra)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans,
                       "self_s": pass_self, "counts": counted[0].counts}, handle)
        details.update({
            "trace_file": str(trace_file.relative_to(ROOT)),
            "untraced_pass_s": untraced.wall, "traced_pass_s": traced.wall,
            "tracing_overhead_s": extra["trace.overhead_s"], "count_repeat_exact": repeat_ok,
        })
    digests = {p.digest() for p in passes}
    failures = sorted({name for p in passes for name in p.failures})
    details.update({
        "passes": len(passes), "instances_per_pass": len(items), "digest": sorted(digests)[0],
        "digest_stable": len(digests) == 1, "failures": failures[:20],
    })
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = failed == 0 and len(digests) == 1 and repeat_ok
    return metrics, details, correct, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["series", "verify", "exact", "cli_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "multispace" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            setup_s, _ = setup(args.workload, args.seed, args.smoke, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        load_start = os.getloadavg()[0]
        metrics, details, correct, attempted, failed = run(args, workdir)
        load_end = os.getloadavg()[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    env.update(load_1min_start=load_start, load_1min_end=load_end,
               host_busy=max(load_start, load_end) > env["nproc"] - 0.5)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **details,
                      "environment": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
