"""End-to-end benchmark of the `tropicon` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark makes seeded inputs, then
runs passes over the workload's command stream through
`tropicon.cli.main(argv)` in this process, one command at a time, and checks
every output against an independent oracle.  The number of passes follows
from S and the workload's nominal pass time, so equal arguments mean equal
work; no pass starts once the run would exceed 1.1 x S.  The last line of
standard output is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of a run whose odd passes are traced (see tracing.py).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 11
OVERRUN = 1.1  # stop starting passes once a run would exceed this share of --seconds


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it,
    but not below the median (with fewer than 20 samples)."""
    return max(50, (100 * (n - 10)) // n)


def quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine_ref() -> float:
    """A fixed pure-stdlib Fraction loop: host speed, with no tropicon code."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return perf_counter() - t0


class Runner:
    """Runs one command in-process, times it and checks its output."""

    def __init__(self, cli):
        self.cli = cli
        self.latency: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def __call__(self, kind: str, argv: list[str], check) -> None:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        self.latency.setdefault(kind, []).append(perf_counter() - t0)
        self.attempted += 1
        text = out.getvalue()
        problem = None
        if rc is None:
            problem = "traceback: " + err.getvalue().strip().splitlines()[-1]
        else:
            try:
                check(rc, text)
            except Exception as exc:  # any oracle failure counts against the command
                problem = f"{type(exc).__name__}: {exc} ({err.getvalue().strip()})"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{' '.join(argv[:2])}: {problem}")
        self.digest.update(f"{kind} {rc}\n".encode())
        self.digest.update(hashlib.sha256(text.encode()).digest())
        if "-o" in argv:
            target = Path(argv[argv.index("-o") + 1])
            data = target.read_bytes() if target.exists() else b""
            self.digest.update(hashlib.sha256(data).digest())


def setup(workload, seed: int, work: Path, n_passes: int) -> tuple[float, list]:
    """Median over repeats of: a fresh interpreter importing tropicon, plus
    making the seeded inputs.  Every repeat must make the same inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, specs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import tropicon"], env=env, cwd=ROOT, check=True)
        made = workload.make_inputs(seed, work, n_passes)
        times.append(perf_counter() - t0)
        if specs is not None and made != specs:
            raise RuntimeError("set-up made different inputs from one seed")
        specs = made
    return statistics.median(times), specs


def self_test(tracer, cli, work: Path) -> list[str]:
    """Trace one `check --k 2` of the two-planes fan and check the counts."""
    path = work / "two-planes.json"
    with redirect_stdout(io.StringIO()):
        cli.main(["gen", "two-planes", "-o", str(path)])
    tracer.reset()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["check", str(path), "--k", "2"])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    calls = summary["calls"]
    problems = [] if rc == 2 else [f"two-planes check exited {rc}, expected 2"]
    once = ("cli.main", "fanjson.load_fan", "connectivity.build_hypergraph",
            "connectivity.is_k_connected")
    for name in once:
        if name not in tracer.absent and calls.get(name, 0) != 1:
            problems.append(f"{name}: {calls.get(name, 0)} spans, expected 1 per check")
    for name in ("polyhedral.validate_complex", "polyhedral.codim1_faces", "polyhedral.hrep",
                 "polyhedral.canonical_key", "polyhedral.dd_cone"):
        if name not in tracer.absent and not calls.get(name):
            problems.append(f"{name}: no spans during check")
    roots = [s for s in tracer.spans if s[3] < 0]
    if [s[0] for s in roots] != ["cli.main"]:
        problems.append(f"root spans {[s[0] for s in roots]}, expected one cli.main")
    elif abs(sum(summary["layer_self"].values()) - (roots[0][2] - roots[0][1])) > 1e-6:
        problems.append("layer self times do not add up to the command's span")
    problems += [f"{name} still wrapped after uninstall" for name in tracer.wrapped_names()]
    tracer.reset()
    return problems


def jobs2_speedup(connectivity, fanjson, fan_path: Path) -> tuple[float, bool]:
    """is_k_connected against is_k_connected_parallel with 2 workers on one
    fan's hypergraph: (median sequential / median parallel, verdicts agree)."""
    fan = fanjson.load_fan(str(fan_path))
    h = connectivity.build_hypergraph(fan)
    k = fan.dim - fan.lineality_dim
    seq, par, agree = [], [], True
    for _ in range(2):
        t0 = perf_counter()
        a = connectivity.is_k_connected(h, k)
        t1 = perf_counter()
        b = connectivity.is_k_connected_parallel(h, k, 2)
        t2 = perf_counter()
        seq.append(t1 - t0)
        par.append(t2 - t1)
        agree = agree and (a.verdict, a.witness) == (b.verdict, b.witness)
    return statistics.median(seq) / statistics.median(par), agree


def latency_metrics(workload, lat: dict, n_passes: int, kinds_by_metric: dict) -> dict:
    """p50 and tail latency of the commands of the given kinds; the tail
    percentile follows from the planned sample count, so it is the same in
    every run with the same arguments.  Kinds the workload does not run read 0."""
    out = {}
    for metric, kinds in kinds_by_metric.items():
        values = [v for kind in kinds for v in lat.get(kind, ())]
        planned = n_passes * sum(workload.per_pass.get(k, 0) for k in kinds)
        pct = tail_percentile(planned) if planned else 0
        out[f"{metric}.p50"] = statistics.median(values) if values else 0.0
        out[f"{metric}.tail"] = quantile(values, pct) if values else 0.0
        if values:
            print(f"{metric}: {len(values)} samples, tail = p{pct} of {planned} planned")
    return out


def layer_metrics(summary: dict, n: int) -> dict:
    calls, incl, counts = summary["calls"], summary["incl"], summary["counts"]
    layer_self = summary["layer_self"]

    def secs(name):
        return incl.get(name, 0.0) / n

    def ncalls(name):
        return calls.get(name, 0) / n

    scan_s = incl.get("connectivity.is_k_connected", 0.0) + incl.get("connectivity.min_facet_cut", 0.0)
    subsets = counts.get("connectivity.connected_after_removal", 0)
    faces = counts.get("polyhedral.faces_returned", 0)
    lps = calls.get("ratlin.lp_feasible", 0)
    m = {
        "cli.self_s": layer_self["cli"] / n,
        "fanjson.load_s": secs("fanjson.load_fan"),
        "fanjson.dump_s": secs("fanjson.fan_to_text"),
        "fanjson.bytes": counts.get("fanjson.bytes", 0) / n,
        "matroid.bergman_fine_s": secs("matroid.bergman_fine"),
        "matroid.bergman_fine_calls": ncalls("matroid.bergman_fine"),
        "tropical.normal_fan_s": secs("tropical.normal_fan"),
        "tropical.balancing_check_s": secs("tropical.balancing_check"),
        "tropical.hyperplane_section_s": secs("tropical.hyperplane_section"),
        "tropical.quotient_s": secs("tropical.quotient_by_lineality"),
        "tropical.star_s": secs("tropical.star"),
        "tropical.self_s": layer_self["tropical"] / n,
        "connectivity.build_hypergraph_s": secs("connectivity.build_hypergraph"),
        "connectivity.is_k_connected_s": secs("connectivity.is_k_connected"),
        "connectivity.min_facet_cut_s": secs("connectivity.min_facet_cut"),
        "connectivity.subsets_examined": subsets / n,
        "connectivity.subsets_per_s": subsets / scan_s if scan_s else 0.0,
        "connectivity.facets": counts.get("connectivity.facets", 0) / n,
        "connectivity.ridges": counts.get("connectivity.ridges", 0) / n,
        "connectivity.self_s": layer_self["connectivity"] / n,
        "polyhedral.ridge_yield": summary["distinct_faces"] / faces if faces else 0.0,
        "polyhedral.hrep_calls": ncalls("polyhedral.hrep"),
        "polyhedral.generates_direction_calls": ncalls("polyhedral.generates_direction"),
        "polyhedral.self_s": layer_self["polyhedral"] / n,
        "ratlin.lp_feasible_ratio": counts.get("ratlin.lp_feasible_found", 0) / lps if lps else 0.0,
        "ratlin.self_s": layer_self["ratlin"] / n,
    }
    for name in ("validate_complex", "dd_cone", "canonical_key", "codim1_faces", "is_face_of",
                 "from_hrep"):
        m[f"polyhedral.{name}_calls"] = ncalls(f"polyhedral.{name}")
        m[f"polyhedral.{name}_s"] = secs(f"polyhedral.{name}")
    for name in ("lp_feasible", "smith_normal_form", "rank_and_kernel", "lattice_normal_generator"):
        m[f"ratlin.{name}_calls"] = ncalls(f"ratlin.{name}")
        m[f"ratlin.{name}_s"] = secs(f"ratlin.{name}")
    return m


def units(names) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: table[name] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the tracing machinery on the two-planes fan and exit")
    args = parser.parse_args(argv)

    if not (SRC / "tropicon" / "__init__.py").is_file():
        print(f"perfbench: no tropicon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tropicon import cli, connectivity, fanjson
    from tracing import Tracer
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported tropicon from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir()
    try:
        tracer = Tracer()
        if args.self_test or args.trace:
            problems = self_test(tracer, cli, work)
            for p in problems:
                print(f"self-test: {p}", file=sys.stderr)
            if problems:
                return 1
            if args.self_test:
                print("self-test: ok")
                return 0
        return measure(WORKLOADS[args.workload], args, cli, connectivity, fanjson, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(w, args, cli, connectivity, fanjson, tracer, work: Path) -> int:
    planned = w.passes(args.seconds)
    setup_s, specs = setup(w, args.seed, work, planned)
    runner = Runner(cli)
    untraced_lat, traced_lat = {}, {}
    pass_s, traced_s, ref_s = [], [], []
    start = perf_counter()
    for i, spec in enumerate(specs):
        if i >= 2 and (perf_counter() - start + statistics.median(pass_s + traced_s)
                       > OVERRUN * args.seconds):
            print(f"stopped after {i} of {planned} passes: the run would exceed "
                  f"{OVERRUN} x {args.seconds} s")
            break
        traced = bool(args.trace) and i % 2 == 1
        runner.latency = traced_lat if traced else untraced_lat
        if args.trace:
            ref_s.append(machine_ref())
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            w.run_pass(i, spec, runner, work)
        finally:
            dt = perf_counter() - t0
            if traced:
                tracer.uninstall()
        (traced_s if traced else pass_s).append(dt)
        if args.trace:
            ref_s.append(machine_ref())
    n_passes = len(pass_s) + len(traced_s)
    untraced_planned = planned - planned // 2 if args.trace else planned

    if args.trace:
        summary = tracer.summary()
        metrics = layer_metrics(summary, len(traced_s))
        metrics.update(latency_metrics(w, untraced_lat, untraced_planned, {
            "gen_s": ("gen",), "cmd_s": w.cmd_kinds, "check_s": ("check",),
            "balance_s": ("balance",), "slice_s": ("slice",)}))
        metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(pass_s) - 1
        metrics["machine.ref_s"] = statistics.median(ref_s)
        speedup = 0.0
        if w.name == "products" and "connectivity.is_k_connected_parallel" not in tracer.absent:
            speedup, agree = jobs2_speedup(connectivity, fanjson, w.largest_fan(work))
            runner.attempted += 1
            if not agree:
                runner.failed += 1
                runner.errors.append("is_k_connected_parallel disagrees with is_k_connected")
        metrics["connectivity.jobs2_speedup"] = speedup
        for name in tracer.absent:
            print(f"absent: {name} (its metrics read 0)")
        mean_pass = statistics.fmean(traced_s)
        shares = {layer: t / len(traced_s) / mean_pass for layer, t in summary["layer_self"].items()}
        print("layer shares of a traced pass: " +
              ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        check_s = sum(traced_lat.get("check", ())) / len(traced_s)
        if check_s:
            print("shares of traced check time: " + ", ".join(
                f"{name} {metrics[f'connectivity.{name}_s'] / check_s:.3f}"
                for name in ("build_hypergraph", "is_k_connected", "min_facet_cut")))
        print("ranges: " + ", ".join(f"{k} {lo}-{hi}" for k, (lo, hi) in sorted(tracer.ranges.items())))
        tracer.dump(STATE / f"spans-{w.name}.tsv.gz")
    else:
        # the mean over the whole run: a shared host's speed drifts in phases
        # of tens of seconds, and a mean of all passes rides them out better
        # than a median of a few
        metrics = {"setup_s": setup_s,
                   "pass_s": statistics.fmean(pass_s),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    for e in runner.errors:
        print(f"failed: {e}", file=sys.stderr)
    print(f"workload {w.name} seed {args.seed}: {n_passes} passes ({len(traced_s)} traced), "
          f"{runner.attempted} commands, fail_frac {runner.failed / max(1, runner.attempted):.4f}")
    print(f"output_digest {runner.digest.hexdigest()} ({n_passes} passes)")
    table = units(metrics)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
