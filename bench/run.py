"""tncse benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dual-train --seed 1 --seconds 20 --trace 0

The run writes its seeded inputs under ``.bench_build/`` (untimed), sets the
workload up several times, then calls the workload's ``tncse.pipeline`` entry
point in a closed loop for ``--seconds``.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced calls with calls
that have every layer function wrapped, and reports the per-layer metrics and
the tracing overhead.  Lines starting with ``#`` describe the environment and
each metric with its unit and sample count; the last line is one JSON object.
The exit code is 0 only if every check on the program's outputs passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

SETUP_REPS = 5          # before the first call and after every call


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program(root):
    """Import tncse from the checkout's sources, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tncse", "__init__.py")):
        raise SystemExit(f"error: no tncse sources under {src}; "
                         "run from the root of a tncse checkout")
    sys.path.insert(0, src)
    import tncse
    if os.path.dirname(os.path.abspath(tncse.__file__)) != os.path.join(src, "tncse"):
        raise SystemExit(f"error: imported tncse from {tncse.__file__}, not {src}")


def environment(root):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "git_revision": git_revision(root)}


def git_revision(root):
    """HEAD of the checkout, read without running git; None outside a
    repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class Session:
    """Repeated calls of one workload for about a given time."""

    def __init__(self, spec, cfg, state, out_dir, tracer):
        self.spec, self.cfg, self.state = spec, cfg, state
        self.out_dir, self.tracer = out_dir, tracer
        self.calls = []
        self.attempted = self.failed = 0
        self.expected = None      # outputs every call must reproduce

    def call_once(self, after_call=None):
        """One pipeline call and its checks; None if the call raised."""
        import workloads
        planned = self.spec.planned_ops(self.cfg)
        try:
            call, spans = workloads.run_call(self.spec, self.cfg, self.state,
                                             self.out_dir, self.tracer)
        except Exception:
            traceback.print_exc()
            self.attempted += planned
            self.failed += planned
            self.tracer.drain()
            return None
        if self.expected is None:
            self.expected = call.fingerprint
        elif call.fingerprint != self.expected:
            call.errors.append("outputs differ from the first call of this run")
        for err in call.errors:
            print(f"error: {self.spec.name}: {err}", file=sys.stderr)
        self.attempted += call.ops
        self.failed += call.ops if call.errors else 0
        self.calls.append(call)
        if after_call is not None:
            after_call(spans, call)
        return call

    def run_for(self, seconds, after_call=None):
        deadline = perf_counter() + seconds
        while True:
            call = self.call_once(after_call)
            if call is None or call.errors or _past(deadline, call.seconds):
                return


def _past(deadline, seconds):
    """Whether calls lasting another ``seconds`` would overrun the deadline
    by more than stopping now falls short of it."""
    return perf_counter() + seconds / 2 >= deadline


def untraced(args, spec, cfg, out_dir):
    import tracer as tr
    import workloads
    setup_s = []

    def set_up(reps):
        for _ in range(reps):
            t0 = perf_counter()
            state = workloads.set_up(spec, cfg)
            setup_s.append(perf_counter() - t0)
        return state

    # host interference comes in windows of seconds, so set-ups are spread
    # over the run instead of being timed back to back at its start
    state = set_up(SETUP_REPS)
    probes = tr.Tracer()
    probes.install(only=tr.PROBES)
    session = Session(spec, cfg, state, out_dir, probes)
    try:
        session.run_for(args.seconds, lambda spans, call: set_up(SETUP_REPS))
    finally:
        probes.uninstall()
    calls = session.calls
    op_ms = [ms for c in calls for ms in c.op_ms]
    seconds = sum(c.seconds for c in calls)
    last = calls[-1] if calls else None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A shared host runs this code at two speeds, for seconds at a time, so
    # step latencies mix two modes.  The median of such a mix jumps from one
    # mode to the other as their shares shift between runs; the mean moves
    # in proportion, so it is the end-to-end latency.  The median is printed
    # as well.
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "op_ms_mean": (_mean(op_ms), "ms", len(op_ms)),
        "sentences_per_s": (sum(c.sentences for c in calls) / seconds if calls else math.nan,
                            "1/s", len(calls)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "val_spearman": (last.val_spearman if last else math.nan, "rho", 1),
    }
    # the same figures under the names the workload's users know them by
    named = {"setup_s": metrics["setup_s"],
             ("step_ms_mean" if spec.trains else "eval_ms_mean"): metrics["op_ms_mean"],
             ("step_ms_p50" if spec.trains else "eval_ms_p50"):
                 (_median(op_ms), "ms", len(op_ms)),
             ("train_samples_per_s" if spec.trains else "embed_sentences_per_s"):
                 metrics["sentences_per_s"],
             "peak_rss_mb": metrics["peak_rss_mb"],
             "val_spearman": metrics["val_spearman"]}
    if spec.trains:
        named["final_loss"] = (last.final_loss if last else math.nan, "loss",
                               cfg[f"{spec.section}.eval_interval"])
    named["failed_share"] = (session.failed / max(session.attempted, 1), "share",
                             session.attempted)
    return session, metrics, named


def traced(args, spec, cfg, out_dir):
    import layers
    import tracer as tr
    import workloads
    tracer = tr.Tracer()
    tracer.install()
    setup_spans = []
    try:
        for _ in range(4 * SETUP_REPS):
            state = workloads.set_up(spec, cfg)
            setup_spans.append(tracer.drain())
    finally:
        tracer.uninstall()

    # untraced and traced calls alternate, so that both meet the same host
    # speed; the untraced ones are the reference for the tracing overhead
    probes = tr.Tracer()
    reference = Session(spec, cfg, state, out_dir, probes)
    session = Session(spec, cfg, state, out_dir, tracer)
    stats = layers.LayerStats()
    deadline = perf_counter() + args.seconds
    while True:
        probes.install(only=tr.PROBES)
        try:
            ref_call = reference.call_once()
        finally:
            probes.uninstall()
        if ref_call is None or ref_call.errors:
            break
        session.expected = reference.expected
        tracer.install()
        try:
            call = session.call_once(
                lambda spans, call: stats.add(spans, call.ops, call.seconds))
        finally:
            tracer.uninstall()
        if call is None or call.errors or _past(deadline, ref_call.seconds + call.seconds):
            break
    session.attempted += reference.attempted
    session.failed += reference.failed

    values = {}
    if stats.ops:
        values.update(stats.metrics())
    values.update(layers.setup_metrics(setup_spans))
    ref_ms = [ms for c in reference.calls for ms in c.op_ms]
    traced_ms = [ms for c in session.calls for ms in c.op_ms]
    values["training.step_ms_p95"] = (statistics.quantiles(ref_ms, n=20)[-1]
                                      if spec.trains and len(ref_ms) >= 2 else 0.0)
    last = session.calls[-1] if session.calls else None
    values["losses.final_loss"] = last.final_loss if spec.trains and last else 0.0
    if ref_ms and traced_ms:
        values["trace.overhead_ms"] = _mean(traced_ms) - _mean(ref_ms)
        values["trace.overhead_share"] = _mean(traced_ms) / _mean(ref_ms) - 1.0
    samples = {"training.step_ms_p95": len(ref_ms), "trace.overhead_ms": len(traced_ms),
               "trace.overhead_share": len(traced_ms)}
    metrics = {name: (values.get(name, math.nan), unit,
                      samples.get(name, stats.ops if name not in layers.SETUP else len(setup_spans)))
               for name, unit in layers.UNITS.items()}
    return session, metrics, {}


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_program(root)
    import workloads
    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.SPECS)}")
    print("# env " + json.dumps(environment(root), sort_keys=True))
    print(f"# run workload={spec.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")

    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="tncse-", dir=build)
    try:
        cfg = workloads.write_inputs(spec, args.seed, os.path.join(work, "inputs"))
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        measure = traced if args.trace else untraced
        session, metrics, named = measure(args, spec, cfg, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit, n) in {**metrics, **named}.items():
        print(f"# metric {name} {value:.6g} {unit} n={n}")
    values_ok = all(math.isfinite(v) for v, _, _ in metrics.values())
    correct = session.failed == 0 and session.attempted > 0 and values_ok
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
