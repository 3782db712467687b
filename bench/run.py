"""edgelca benchmark: one command for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from any directory; the repository root is found from this file. The
program is run from `src/` (PYTHONPATH=src), never from an installed copy.

Workloads (see BENCHMARK.json for why each exists):
  estimate_bulk       ~10k table-only profiles; `estimate --format csv`, then jsonl
  estimate_overrides  5k profiles with 2-4 overrides each; `validate` on a dirty
                      copy (exit 1, exact diagnostics), then `estimate --format table`
  cli_commands        closed loop, one client: sequential `python -m edgelca.cli`
                      subprocesses over estimate, validate, sensitivity, project, pathway

All load comes from this process and at most one child at a time. Every run
first measures set-up (`setup_s`): in fresh processes, `import edgelca.cli`
plus loading the four bundled data files through `defaults.*`, median of
SETUP_RUNS. Untraced runs (`--trace 0`) report the end-to-end metrics;
traced runs (`--trace 1`) wrap the functions the CLI calls (see tracer.py)
and report the per-layer metrics, including the tracing overhead. Times of
functions the workload does not call itself come from a short traced probe
over the bundled inputs (`layer_probe`); the report names them.

Outputs are checked after timing (checks.py). The report prints every
metric with its unit, the check outcome, and, as its last line, one JSON
object. A results file with the environment record is written to
`.bench_results/`. The exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks as ck
import gen
from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "edgelca" / "data"
USE_CASES = DATA / "profiles" / "use_cases.iotprof"
DATA_FILES = ("factors.csv", "units.csv", "trends.csv", "scenarios.csv")
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_RUNS = 21
CHILD_TIMEOUT_S = 170
MIN_ROTATIONS = 3

#: sha256 of stdout for the bundled inputs, recorded when the benchmark was written.
CLI_ROTATION = (
    ("estimate", ["estimate", "use_cases.iotprof", "--format", "csv"],
     "41725f8da47968f3bf633be3cdcc0d9368fc03e14d58301d6081f62840065c12"),
    ("validate", ["validate", "use_cases.iotprof"],
     "9fbe18c68d99cc7153c0ed97d0cf4c1453394a303d55328278905953ab50b4fe"),
    ("sensitivity", ["sensitivity", "--series-out", "series.csv"],
     "deaf313ea2dbe58b6776878afee7adab1871c9ce64e68031888e9a2fa9bb7402"),
    ("project", ["project"],
     "7c9c79547f9aaed9fcffa51110a36d16ccf1a1c462ecfae5e2e701bb399d8c3e"),
    ("pathway", ["pathway"],
     "fd7bb70e59ff9a669565db1f934c4b81dc0e618a4c9f9c1783383de6ad51ee4a"),
)
SERIES_DIGEST = "2a0c9207671c3131951a2e0c8232d7333fc0c2c2192d49f58b0cb0706960407a"
#: Commands the layer probe runs besides CLI_ROTATION, with their stdout digests.
PROBE_EXTRA = (
    ("estimate-jsonl", ["estimate", "use_cases.iotprof", "--format", "jsonl"],
     "0435032f7915899f529c45d889ae60765d7791473dd7623f9636d8384d410a96"),
    ("estimate-table", ["estimate", "use_cases.iotprof", "--format", "table"],
     "05a312a1ebb7e79678736f3d6891a5cd28e3c18dfa5c6487c21929d4608b89a8"),
)
PROBE_SECONDS = 2
#: Profile sections read per rotation: estimate and validate of use_cases.iotprof.
CLI_SECTIONS_PER_ROTATION = 8

LAYERS = ("cli", "defaults", "factors", "profiles_io", "estimator", "sensitivity", "projection")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EDGE_LCA_DATA_DIR", None)  # always the bundled data
    return env


def run_child(argv, cwd, **kwargs):
    """Run one child to completion; returns (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)
    return time.perf_counter() - start, proc


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """Inclusive-method 90th percentile."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --- set-up -------------------------------------------------------------------

def setup_samples(workdir, runs, checks):
    """Seconds of `import edgelca.cli` plus loading the four bundled data files,
    each in a fresh process."""
    samples = []
    for _ in range(runs):
        _, proc = run_child([sys.executable, str(BENCH / "child.py"), "setup"], workdir)
        checks.check(proc.returncode == 0, f"setup child failed: {proc.stderr[-500:]!r}")
        if proc.returncode == 0:
            samples.append(json.loads(proc.stdout)["seconds"])
    return samples


def layer_setup(workdir, checks):
    """Interpreter start, import and data-file load times for the traced run.

    The three probes are interleaved, so a slow phase of the machine slows
    all of them alike instead of one block.
    """
    py = sys.executable
    interp, imports, loads = [], [], {}
    for i in range(SETUP_RUNS):
        interp.append(run_child([py, "-c", "pass"], workdir)[0])
        imports.append(run_child([py, "-c", "import edgelca.cli"], workdir)[0])
        out = workdir / f"setup-spans-{i}.json"
        _, proc = run_child([py, str(BENCH / "child.py"), "setup-trace", str(out)], workdir)
        checks.check(proc.returncode == 0, f"setup-trace child failed: {proc.stderr[-500:]!r}")
        if proc.returncode == 0:
            for name, start, end, _ in json.loads(out.read_text())["spans"]:
                loads.setdefault(name, []).append(end - start)
    interpreter = median(interp)
    return {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (median(imports) - interpreter) * 1e3,
        "factors.parse_factor_table_ms": median(loads.get("factors.parse_factor_table", [])) * 1e3,
        "factors.parse_unit_registry_ms": median(loads.get("factors.parse_unit_registry", [])) * 1e3,
        "projection.parse_trends_ms": median(loads.get("projection.parse_trends", [])) * 1e3,
        "projection.parse_scenarios_ms": median(loads.get("projection.parse_scenarios", [])) * 1e3,
    }


# --- workloads ----------------------------------------------------------------

def check_invocations(checks, invocations, expected_codes):
    """Exact exit codes, and byte-identical outputs across every pass of a command."""
    first = {}
    for inv in invocations:
        label = inv["label"]
        checks.check(inv["code"] == expected_codes[label],
                     f"{label}: exit code {inv['code']}, expected {expected_codes[label]}")
        reference = first.setdefault(label, inv["digests"])
        checks.check(inv["digests"] == reference, f"{label}: output differs between passes")


def run_inproc(workdir, seconds, trace, sequence):
    spec = {"seconds": seconds, "trace": trace, "sequence": sequence}
    (workdir / "spec.json").write_text(json.dumps(spec))
    _, proc = run_child([sys.executable, str(BENCH / "inproc.py"), "spec.json", "result.json"],
                        workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process runner failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads((workdir / "result.json").read_text())


def estimate_bulk(seed, seconds, trace, workdir, checks):
    text, profiles = gen.bulk_document(seed)
    (workdir / "bulk.iotprof").write_text(text, encoding="utf-8")
    del text
    sequence = [
        {"label": f"estimate-{fmt}", "argv": ["estimate", "bulk.iotprof", "--format", fmt,
                                             "--out", f"bulk.{fmt}"],
         "stdout": f"estimate-{fmt}.stdout", "outputs": [f"bulk.{fmt}"]}
        for fmt in ("csv", "jsonl")
    ]
    result = run_inproc(workdir, seconds, trace, sequence)
    check_invocations(checks, result["invocations"], {"estimate-csv": 0, "estimate-jsonl": 0})
    expected = list(ck.expected_rows(profiles, ck.read_factors(DATA / "factors.csv"),
                                     ck.read_units(DATA / "units.csv")))
    ck.check_csv(checks, workdir / "bulk.csv", expected)
    ck.check_jsonl(checks, workdir / "bulk.jsonl", expected)
    return inproc_result(result, len(profiles))


def estimate_overrides(seed, seconds, trace, workdir, checks):
    dirty, clean, profiles, diagnostics = gen.override_documents(seed)
    (workdir / "dirty.iotprof").write_text(dirty, encoding="utf-8")
    (workdir / "clean.iotprof").write_text(clean, encoding="utf-8")
    units_text = gen.override_units((DATA / "units.csv").read_text(encoding="utf-8"))
    (workdir / "units.csv").write_text(units_text, encoding="utf-8")
    sections = sum(line.startswith("[") for line in dirty.splitlines())
    sequence = [
        {"label": "validate", "argv": ["validate", "dirty.iotprof"],
         "stdout": "validate.stdout", "outputs": []},
        {"label": "estimate-table", "argv": ["estimate", "clean.iotprof", "--units", "units.csv",
                                             "--format", "table", "--out", "report.txt"],
         "stdout": "estimate.stdout", "outputs": ["report.txt"]},
    ]
    result = run_inproc(workdir, seconds, trace, sequence)
    check_invocations(checks, result["invocations"], {"validate": 1, "estimate-table": 0})
    ck.check_diagnostics(checks, workdir / "validate.stdout", "dirty.iotprof", diagnostics)
    expected = ck.expected_rows(profiles, ck.read_factors(DATA / "factors.csv"),
                                ck.read_units(workdir / "units.csv"))
    ck.check_table(checks, workdir / "report.txt", expected)
    return inproc_result(result, sections)


def inproc_result(result, sections):
    return {
        "sections": sections,
        "sequence_walls": result["untraced"],
        "invocation_walls": walls_by_label(result["invocations"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "traced": [aggregate_spans([spans], wall) for wall, spans in result["traced"]],
        "spans": [spans for _, spans in result["traced"]],
        **counted([result["counting"]] if result["counting"] else []),
    }


def layer_probe(workdir, checks):
    """Traced in-process passes over the bundled inputs: the cli_commands
    rotation plus `estimate --format jsonl` and `--format table`.

    Per-layer times of functions a workload does not call itself are taken
    from here, so every per-layer metric is measured on every workload.
    """
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    shutil.copy(USE_CASES, probe_dir / "use_cases.iotprof")
    commands = CLI_ROTATION + PROBE_EXTRA
    sequence = [{"label": label, "argv": args, "stdout": f"{label}.stdout", "outputs": []}
                for label, args, _ in commands]
    result = run_inproc(probe_dir, PROBE_SECONDS, 1, sequence)
    check_invocations(checks, result["invocations"], {label: 0 for label, _, _ in commands})
    for label, _, digest in commands:
        checks.check(sha256(probe_dir / f"{label}.stdout") == digest,
                     f"probe {label}: stdout differs from the recorded digest")
    checks.check(sha256(probe_dir / "series.csv") == SERIES_DIGEST,
                 "probe sensitivity: --series-out differs from the recorded digest")
    return inproc_result(result, 0)


def cli_commands(seed, seconds, trace, workdir, checks):
    shutil.copy(USE_CASES, workdir / "use_cases.iotprof")
    start = seed % len(CLI_ROTATION)
    rotation = CLI_ROTATION[start:] + CLI_ROTATION[:start]
    py = sys.executable
    invocations, untraced, traced, all_spans = [], [], [], []

    def run_rotation(mode):
        """mode: None (untraced), "0" (traced) or "1" (traced and counting)."""
        wall, spans, dumps = 0.0, [], []
        for label, args, digest in rotation:
            if mode is None:
                argv = [py, "-m", "edgelca.cli"] + args
            else:
                argv = [py, str(BENCH / "child.py"), "cli", "spans.json", mode] + args
            elapsed, proc = run_child(argv, workdir)
            wall += elapsed
            invocations.append({"label": label, "wall": elapsed, "traced": mode is not None})
            checks.check(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            checks.check(hashlib.sha256(proc.stdout).hexdigest() == digest,
                         f"{label}: stdout differs from the recorded digest")
            if label == "sensitivity":
                checks.check(sha256(workdir / "series.csv") == SERIES_DIGEST,
                             "sensitivity: --series-out differs from the recorded digest")
            if mode is not None:
                dump = json.loads((workdir / "spans.json").read_text())
                dumps.append(dump)
                spans.append(dump["spans"])
        return wall, spans, dumps

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_ROTATIONS:
        untraced.append(run_rotation(None)[0])
        if trace:
            wall, spans, _ = run_rotation("0")
            traced.append(aggregate_spans(spans, wall))
            all_spans.append(spans)
    dumps = run_rotation("1")[2] if trace else []
    return {
        "sections": CLI_SECTIONS_PER_ROTATION,
        "sequence_walls": untraced,
        "invocation_walls": walls_by_label(invocations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "traced": traced,
        "spans": all_spans,
        **counted(dumps),
    }


def walls_by_label(invocations):
    """Untraced invocation walls in ms, grouped by command."""
    out = {}
    for inv in invocations:
        if not inv["traced"]:
            out.setdefault(inv["label"], []).append(inv["wall"] * 1e3)
    return out


def counted(dumps):
    """Merge tracer dumps of counting passes: work units, tracemalloc peaks, absent names."""
    units, peaks = Counter(), {}
    for d in dumps:
        for name, counter, amount in d["units"]:
            units[(name, counter)] += amount
        for name, peak in d["peaks"].items():
            peaks[name] = max(peak, peaks.get(name, 0))
    return {"units": units, "peaks": peaks, "absent": dumps[0]["absent"] if dumps else []}


def aggregate_spans(span_lists, wall):
    """Sum self time, total time and calls per span name over several span lists."""
    agg = {"wall": wall, "self": Counter(), "total": Counter(), "calls": Counter()}
    for spans in span_lists:
        agg["self"].update(self_times(spans))
        for name, start, end, _ in spans:
            agg["total"][name] += end - start
            agg["calls"][name] += 1
    return agg


WORKLOADS = {
    "estimate_bulk": estimate_bulk,
    "estimate_overrides": estimate_overrides,
    "cli_commands": cli_commands,
}


# --- metrics ------------------------------------------------------------------

def end_to_end(run, setup):
    """Throughput from the median sequence. Latencies are taken per command,
    then averaged over the sequence's commands, so that commands of different
    cost are not pooled into one distribution."""
    walls = run["invocation_walls"].values()
    return {
        "setup_s": setup["setup_s"],
        "profiles_per_s": run["sections"] / median(run["sequence_walls"]),
        "cli_ms_p50": statistics.fmean(median(w) for w in walls),
        "cli_ms_p90": statistics.fmean(p90(w) for w in walls),
        "peak_rss_mb": run["peak_rss_mb"],
    }


#: Per-layer µs metrics: metric -> (span, work counter its time is divided by).
PER_UNIT_US = {
    "profiles_io.parse_us": ("profiles_io.load_profiles", "sections"),
    "profiles_io.validate_us": ("profiles_io.validate_profiles", "sections"),
    "profiles_io.render_csv_us": ("profiles_io.render_reports[csv]", "reports"),
    "profiles_io.render_jsonl_us": ("profiles_io.render_reports[jsonl]", "reports"),
    "profiles_io.render_table_us": ("profiles_io.render_reports[table]", "reports"),
    "estimator.evaluate_us": ("estimator.batch_evaluate", "profiles"),
}
#: Per-call ms metrics: metric -> (spans whose time is summed, span that counts one call).
PER_CALL_MS = {
    "sensitivity.scan_extrema_ms": (("sensitivity.scan_extrema",), "sensitivity.scan_extrema"),
    "sensitivity.level_series_csv_ms": (("sensitivity.level_series_csv",),
                                        "sensitivity.level_series_csv"),
    "projection.project_ms": (("projection.cumulative_to_annual", "projection.project",
                               "projection.projection_csv"), "projection.projection_csv"),
    "projection.pathway_ms": (("projection.paris_pathway", "projection.pathway_csv"),
                              "projection.pathway_csv"),
    "cli.self_ms": ((), "cli.main"),
}
#: tracemalloc peaks: metric -> span.
PEAK_MB = {
    "profiles_io.parse_peak_mb": "profiles_io.load_profiles",
    "estimator.evaluate_peak_mb": "estimator.batch_evaluate",
}
#: Work counts of the workload's own sequence: metric -> (span name prefixes, counter).
COUNTS = {
    "profiles_io.profiles": (("profiles_io.load_profiles", "profiles_io.validate_profiles"),
                             "profiles"),
    "profiles_io.diagnostics": (("profiles_io.validate_profiles",), "diagnostics"),
    "profiles_io.output_bytes": (("profiles_io.render_reports",), "output_bytes"),
    "estimator.overrides_applied": (("estimator.batch_evaluate",), "overrides_applied"),
    "estimator.warnings": (("estimator.batch_evaluate",), "warnings"),
}


def per_layer(run, probe, setup):
    """Per-layer metrics, and the names of those taken from the probe.

    Times come from the workload's traced sequences when the workload calls
    the function, else from the probe's; each is the median over sequences.
    """
    from_probe = []

    def source(metric, names):
        if any(a["calls"].get(n) for a in run["traced"] for n in names):
            return run
        from_probe.append(metric)
        return probe

    def per_seq(r, fn):
        return median([fn(agg) for agg in r["traced"]])

    def layer_self(agg, layer):
        return sum(v for name, v in agg["self"].items() if name.split(".", 1)[0] == layer)

    metrics = {}
    for metric, (name, counter) in PER_UNIT_US.items():
        r = source(metric, [name])
        n = r["units"][(name, counter)]
        metrics[metric] = per_seq(r, lambda a: a["total"].get(name, 0.0)) / n * 1e6 if n else 0.0
    for metric, (names, per) in PER_CALL_MS.items():
        r = source(metric, [per])

        def per_call(a):
            calls = a["calls"].get(per, 0)
            spent = sum(a["total"].get(n, 0.0) for n in names) if names else a["self"].get(per, 0.0)
            return spent / calls * 1e3 if calls else 0.0
        metrics[metric] = per_seq(r, per_call)
    for metric, name in PEAK_MB.items():
        metrics[metric] = source(metric, [name])["peaks"].get(name, 0) / 2**20
    metrics.update({k: v for k, v in setup.items() if "." in k})
    for layer in LAYERS:
        metric = f"self.{layer}_ms"
        r = source(metric, {n for a in run["traced"] for n in a["calls"]
                            if n.split(".", 1)[0] == layer})
        metrics[metric] = per_seq(r, lambda a: layer_self(a, layer) * 1e3)
    metrics["trace.untraced_ms"] = median(run["sequence_walls"]) * 1e3
    metrics["trace.self_sum_ms"] = per_seq(run, lambda a: sum(a["self"].values()) * 1e3)
    # Untraced and traced sequences alternate. Differences are taken between
    # neighbours, so that slow phases of a shared machine cancel out.
    pairs = list(zip(run["sequence_walls"], run["traced"]))
    metrics["trace.overhead_ms"] = median([a["wall"] - u for u, a in pairs]) * 1e3
    metrics["trace.self_minus_untraced_ms"] = median(
        [sum(a["self"].values()) - u for u, a in pairs]) * 1e3
    metrics["trace.outside_spans_ms"] = median(
        [a["wall"] - sum(a["self"].values()) for _, a in pairs]) * 1e3
    for metric, (prefixes, counter) in COUNTS.items():
        metrics[metric] = sum(v for (name, c), v in run["units"].items()
                              if c == counter and name.startswith(prefixes))
    return metrics, from_probe


# --- report -------------------------------------------------------------------

def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "data_sha256": {name: sha256(DATA / name) for name in DATA_FILES},
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgelca" / "cli.py").is_file():
        print(f"error: no edgelca sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            failed |= run_one(argparse.Namespace(**{**vars(args), "workload": workload,
                                                    "trace": trace}))
    return failed


def run_one(args):
    """Run one workload, print its report and write its results file; 0 if every check passed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    checks = ck.Checks()
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run_child([sys.executable, str(BENCH / "child.py"), "setup"], workdir)  # writes .pyc files
        if args.trace:
            setup = layer_setup(workdir, checks)
        else:
            # Half the set-up samples before the workload and half after, so
            # they span the same phases of a shared machine as the workload.
            samples = setup_samples(workdir, SETUP_RUNS // 2, checks)
        run = WORKLOADS[args.workload](args.seed, args.seconds, args.trace, workdir, checks)
        if args.trace:
            probe = layer_probe(workdir, checks)
        else:
            samples += setup_samples(workdir, SETUP_RUNS - SETUP_RUNS // 2, checks)
            setup = {"setup_s": median(samples), "setup_samples": samples}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values, from_probe = per_layer(run, probe, setup)
    else:
        values = end_to_end(run, setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, m in metrics.items():
        value = f"{m['value']:14d}" if isinstance(m["value"], int) else f"{m['value']:14.4f}"
        print(f"  {name:34} {value} {m['unit']}")
    n_inv = sum(len(w) for w in run["invocation_walls"].values())
    print(f"  samples: {len(run['sequence_walls'])} sequences, {n_inv} invocations"
          + (f", {len(setup['setup_samples'])} set-up processes" if not args.trace else ""))
    if args.trace:
        print(f"  bases: *_us per profile or section, *_ms/call per call, self.*_ms and "
              f"trace.*_ms per sequence, {len(run['traced'])} traced sequences")
        print(f"  from the layer probe ({len(probe['traced'])} traced passes over the bundled "
              f"inputs): {', '.join(from_probe) or 'none'}")
        print(f"  absent names: {', '.join(run['absent']) or 'none'}")
        print(f"  per sequence, median over neighbouring pairs: self-time sum minus untraced "
              f"wall {values['trace.self_minus_untraced_ms']:.1f} ms, tracing overhead "
              f"{values['trace.overhead_ms']:.1f} ms, traced time outside spans "
              f"{values['trace.outside_spans_ms']:.1f} ms"
              + (" (each child's interpreter start and import)"
                 if args.workload == "cli_commands" else ""))
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed, failed_ratio {ratio:g}")
    for message in checks.messages:
        print(f"    FAILED: {message}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "all_values": values,
        "samples": {"sequences": len(run["sequence_walls"]), "invocations": n_inv,
                    "sequence_walls": run["sequence_walls"],
                    "invocation_walls_ms": run["invocation_walls"],
                    "setup_s": setup.get("setup_samples")},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failed_ratio": ratio, "messages": checks.messages},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(run["spans"]))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 and checks.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
