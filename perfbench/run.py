"""paleylift CLI pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a workload's instances through `paleylift.cli.main` in one process:
the graph command, `code --rotation`, `distance`, `verify`, and the
self-complementarity / self-duality certificates.  Passes repeat until
`--seconds` is used up; every output is checked (see pipeline.py).

--trace 0 prints the end-to-end metrics: stage and pass times as sums of
per-operation medians over the passes, set-up time as the median of its
samples, all in reference-machine seconds (see END_TO_END and
calibration.py).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (see tracing.py) and the trace overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Workloads are described in
README.md.  Everything runs in this process with no threads; set-up time
is sampled in fresh interpreters.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
# Share of the traced coverage pass that the wrapped functions' self
# times must account for; the rest is argument parsing and the loop here.
MIN_ACCOUNTED = 0.9

# Metric, unit, and the statistic reported over the run's samples.  Stage
# and pass times are sums over operations of each operation's median over
# the passes (see scaled_ops), so every operation weighs the same in every
# run whatever the number of passes.  Times are in reference-machine
# seconds (calibration.py); the raw per-pass times are printed too.
END_TO_END = [("pipeline_s", "s", sum), ("graph_s", "s", sum), ("code_s", "s", sum),
              ("distance_s", "s", sum), ("verify_s", "s", sum),
              ("certificate_s", "s", sum), ("bundle_bytes", "bytes", statistics.median),
              ("peak_rss_mb", "MB", statistics.median),
              ("setup_s", "s", statistics.median)]


def describe(values: list[float]) -> str:
    """Median, quartiles, sample count, and the highest percentile with at
    least ten samples beyond it when there are that many."""
    n = len(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
    text = f"min {min(values):.6g}  median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {n}"
    if n > 10:
        k = n - 10                      # order statistic with ten samples above it
        text += f"  p{100 * k // n} {sorted(values)[k - 1]:.6g}"
    return text


def setup_time(workload: str, seed: int, index: int) -> float:
    """Set-up seconds measured in a fresh interpreter, in reference-machine
    seconds: the machine's speed is sampled here before the probe starts
    and by the probe right after its set-up."""
    before = calibration.sample()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(WORK / f"probe{index}")],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    seconds, after = (float(x) for x in proc.stdout.split()[-2:])
    return seconds * calibration.scale(before, after)


class Run:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add_pass(self, p) -> None:
        self.attempted += len(p.ops)
        self.failures += [f"{op.label}: {op.detail}" for op in p.ops if not op.ok]

    def self_check(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"self-check {name}: {problem}")
        print(f"self-check {name}: {'FAIL ' + problem if problem else 'ok'}")


def negative_control(run: Run, seed: int) -> None:
    """A flipped bit in hz.txt and a wrong expected k must each surface as a
    failed operation, not a crash and not a pass."""
    import inputs
    from pipeline import Pass
    from workloads import Plan

    inst = inputs.make_instances([9], [], seed)[0]
    base = WORK / "negative"
    base.mkdir(parents=True)
    (base / f"{inst.name}.rotation.json").write_text(inputs.rotation_text(inst)[1])
    plan = Plan(weights=(1,), self_complementary=False)
    for fault, stage in (("hz-bit-flip", "verify"), ("wrong-k", "code")):
        try:
            p = Pass(base / fault, base).run([(inst, plan)], fault=fault)
        except Exception as exc:   # the gate must absorb faults, so this is a finding
            run.self_check(f"gate catches {fault}", f"crashed: {exc!r}")
            continue
        failed = [op for op in p.ops if not op.ok]
        problem = None
        if not any(op.stage == stage for op in failed):
            problem = f"no failed {stage} operation"
        run.self_check(f"gate catches {fault} (error_rate {len(failed)}/{len(p.ops)})",
                       problem)


def coverage_check(run: Run, tracer, items, bypassed, inputs_dir: Path):
    """Traced warm-up on the smallest instances: every wrapped function the
    workload loads is called, none it bypasses is, and the self times
    account for the pass.  Returns the pass."""
    from pipeline import Pass
    from tracing import FUNCTIONS, WRAPPED
    from workloads import coverage_items

    tracer.reset()
    tracer.recording = True
    p = Pass(WORK / "warmup", inputs_dir, tracer).run(coverage_items(items))
    tracer.recording = False
    p.digest = p.digests()
    run.add_pass(p)
    summary = tracer.summary()
    silent = [f for f in FUNCTIONS if f not in bypassed and summary[f"{f}.calls"] == 0]
    stray = [f for f in FUNCTIONS if f in bypassed and summary[f"{f}.calls"] > 0]
    problem = None
    if silent or stray:
        problem = f"never called: {silent}; called but bypassed: {stray}"
    run.self_check("trace covers every loaded function", problem)
    accounted = sum(summary[f"{m}.self_s"] for m in WRAPPED)
    share = accounted / p.pipeline_s
    run.self_check(f"module self times account for {share:.1%} of the traced pass",
                   None if share >= MIN_ACCOUNTED else f"below {MIN_ACCOUNTED:.0%}")
    return p


def timed_passes(items, inputs_dir: Path, seconds: float, between, tracer=None):
    """Passes until the next one, predicted to last as long as the last,
    would end more than half a pass after `seconds` (at least one), calling
    `between()` after each.  With a tracer, untraced and traced passes
    alternate."""
    from pipeline import Pass

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in ([False, True] if tracer else [False]):
            out = WORK / "pass"
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            if mode:
                tracer.install()
                tracer.reset()
                tracer.recording = True
            p = Pass(out, inputs_dir, tracer if mode else None).run(items)
            if mode:
                tracer.recording = False
                p.trace = tracer.summary()
                tracer.uninstall()
            p.digest = p.digests()
            (traced if mode else plain).append(p)
            between()
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            return plain, traced


def scaled_ops(passes) -> dict[str, tuple[str, float]]:
    """Each operation's stage and its median over the passes of its
    reference-machine seconds."""
    seen: dict[str, tuple[str, list[float]]] = {}
    for p in passes:
        for op in p.ops:
            seen.setdefault(op.label, (op.stage, []))[1].append(op.seconds * op.scale)
    return {label: (stage, statistics.median(times)) for label, (stage, times) in seen.items()}


def check_determinism(run: Run, passes) -> None:
    """Every artifact but manifest.json must be byte-identical in every pass
    of a run that wrote it; a mismatch fails the operation that wrote it."""
    reference: dict = {}
    for p in passes:
        for rel, digest in p.digest.items():
            if reference.setdefault(rel, digest) != digest:
                op = p.writers[p.out / rel]
                if op.ok:
                    op.ok = False
                    op.detail = f"{rel} differs from an earlier pass"
                    run.failures.append(f"{op.label}: {op.detail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "paleylift" / "cli.py").is_file():
        print(f"error: no paleylift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import WRAPPED, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # Set-up samples are spread over the run so that they meet the
        # machine in as many states as the passes do.
        setup: list[float] = []

        def sample_setup() -> None:
            if not args.trace:
                setup.append(setup_time(args.workload, args.seed, len(setup)))

        sample_setup()
        inputs_dir = WORK / "inputs"
        items = workloads.set_up(workload, args.seed, inputs_dir)
        run = Run()
        negative_control(run, args.seed)

        tracer = Tracer()
        missing = tracer.install()
        run.self_check("every wrapped function exists",
                       f"missing: {missing}" if missing else None)
        warmup = coverage_check(run, tracer, items, workload.bypassed, inputs_dir)
        tracer.uninstall()

        plain, traced = timed_passes(items, inputs_dir, args.seconds, sample_setup,
                                     tracer if args.trace else None)
        while not args.trace and len(setup) < SETUP_SAMPLES:
            sample_setup()
        for p in plain + traced:
            run.add_pass(p)
        check_determinism(run, [warmup] + plain + traced)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  instances "
          f"{' '.join(inst.name for inst, _ in items)}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"error_rate {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / run.attempted:.6g}")

    metrics = {}
    if not args.trace:
        per_pass = {f"{s}_s": [p.stage_s[s] for p in plain] for s in
                    ("graph", "code", "distance", "verify", "certificate")}
        per_pass["pipeline_s"] = [p.pipeline_s for p in plain]
        ops = scaled_ops(plain)
        samples = {name: [t for stage, t in ops.values() if f"{stage}_s" == name]
                   for name in per_pass if name != "pipeline_s"}
        samples["pipeline_s"] = [t for _, t in ops.values()]
        samples["bundle_bytes"] = [p.bytes_written for p in plain]
        samples["peak_rss_mb"] = [rss_mb]
        samples["setup_s"] = setup
        for name, unit, statistic in END_TO_END:
            metrics[name] = {"value": statistic(samples[name]), "unit": unit}
            shown = per_pass.get(name, samples[name])
            print(f"{name:14} [{unit}]  reported {metrics[name]['value']:.6g} "
                  f"({'sum of per-operation medians' if statistic is sum else 'median'}); "
                  f"{'raw per pass ' if name in per_pass else ''}{describe(shown)}")
    else:
        for name in traced[0].trace:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(p.trace[name] for p in traced),
                             "unit": unit}
        # Overhead in reference-machine seconds, like pipeline_s; self times
        # and the unaccounted rest are raw seconds of the traced passes.
        untraced = sum(t for _, t in scaled_ops(plain).values())
        with_trace = sum(t for _, t in scaled_ops(traced).values())
        accounted = statistics.median(
            sum(p.trace[f"{m}.self_s"] for m in WRAPPED) for p in traced)
        extra = {"trace.pipeline_untraced_s": untraced,
                 "trace.pipeline_traced_s": with_trace,
                 "trace.overhead_s": with_trace - untraced,
                 "trace.unaccounted_s":
                     statistics.median(p.pipeline_s for p in traced) - accounted}
        for name, value in extra.items():
            metrics[name] = {"value": value, "unit": "s"}
        for name, m in metrics.items():
            print(f"{name:58} [{m['unit']}]  {m['value']:.6g}")
        print(f"traced passes {len(traced)}, untraced passes {len(plain)}; "
              "wait time: none (one process, no queue or thread)")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
