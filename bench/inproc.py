"""In-process runner for the estimate workloads, started fresh by `run.py`.

    inproc.py SPEC OUT

SPEC is a JSON file: {"seconds", "trace", "sequence": [{"label", "argv",
"stdout", "outputs"}]}. Each command of the sequence calls
`edgelca.cli.main(argv, standalone_mode=False)` in this process, with its
stdout sent to a file. The sequence repeats until `seconds` have passed
(at least MIN_SEQUENCES times). With `trace`, untraced and traced sequences
alternate, and a final counting pass records work counts and tracemalloc
peaks. OUT receives per-invocation walls, exit codes and output digests,
each traced sequence's wall and spans, and this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
import edgelca.cli
from tracer import Tracer

MIN_SEQUENCES = 3


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _invoke(argv, tracer):
    main = edgelca.cli.main
    try:
        if tracer is None:
            main(argv, standalone_mode=False)
        else:
            tracer.span("cli.main", main, argv, standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_sequence(sequence, invocations, tracer=None):
    """One pass over the command sequence; returns its wall time in seconds."""
    wall = 0.0
    for cmd in sequence:
        gc.collect()
        with open(cmd["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            start = time.perf_counter()
            code = _invoke(cmd["argv"], tracer)
            elapsed = time.perf_counter() - start
        wall += elapsed
        digests = [_digest(p) for p in [cmd["stdout"]] + cmd["outputs"]]
        invocations.append({"label": cmd["label"], "wall": elapsed, "code": code,
                            "digests": digests, "traced": tracer is not None})
    return wall


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sequence = spec["sequence"]
    invocations, untraced, traced = [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < deadline or len(untraced) < MIN_SEQUENCES:
        untraced.append(run_sequence(sequence, invocations))
        if spec["trace"]:
            tracer = Tracer().install()
            try:
                wall = run_sequence(sequence, invocations, tracer)
            finally:
                tracer.uninstall()
            traced.append([wall, tracer.spans])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counting = None
    if spec["trace"]:
        tracer = Tracer(counting=True).install()
        try:
            run_sequence(sequence, invocations, tracer)
        finally:
            tracer.uninstall()
        counting = tracer.dump()
        counting.pop("spans")
    result = {
        "invocations": invocations,
        "untraced": untraced,
        "traced": traced,
        "counting": counting,
        "peak_rss_kb": peak_rss_kb,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
