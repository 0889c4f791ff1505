"""Benchmark of vancyc: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload elimination --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run sets the workload up several times in fresh interpreters
(``setup_s``), builds the seeded items, makes one warm-up pass and then
repeats passes over the items, closed loop and single-threaded, for
``--seconds``.  Every item's value is compared with its expected value; a
wrong value, an exception or a stopped S-pair budget counts as a failure.

``--trace 0`` reports run_s, the sum of the item times, slowest_item_s, the
largest item time, setup_s and peak_rss_mb.

Times are reported at a fixed machine speed.  The shared machines this runs
on change speed by a factor of up to 1.7 within tens of seconds, for every
program alike, which would swamp any difference between two commits.  So a
fixed reference loop shaped like the program's own work, the product of two
sparse polynomials with rational coefficients held in dicts keyed by
exponent tuples, is timed before and after every set-up and around every
stretch of at least REFERENCE_EVERY_S of items, and each measured time is
scaled by REFERENCE_S over the mean of the two timings around it.  A time is
thus the wall time on a machine where the reference loop takes REFERENCE_S.
When the two timings differ, the speed changed during the stretch and its
scale is less sound, so an item's time (and a set-up's) is the median over
the half of its passes (set-ups) whose two timings differ least.  The raw
wall times, scales and drifts are kept in the record.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (times scaled as above), the set-up steps
and the tracing overhead (traced run_s minus untraced run_s).
The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with the environment stamp and the spans of the first traced pass,
is written under ``perfbench/out/``.  The exit code is 0 when every item is
correct, 1 when any failed and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
REFERENCE_S = 0.05  # the reference loop's time at the reported machine speed
REFERENCE_EVERY_S = 0.5  # item time between two timings of the reference loop

END_TO_END_UNITS = {"run_s": "s", "slowest_item_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def judge(expected, got) -> tuple[int, list[str]]:
    """(outcomes attempted, labels of the wrong ones) for one item's value."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return len(expected), list(expected)
        return len(expected), [k for k, v in expected.items() if got.get(k) != v]
    return 1, [] if got == expected else [""]


def _reference_factors() -> tuple[dict, dict]:
    rng = random.Random("reference")

    def sparse(terms: int) -> dict:
        return {(rng.randrange(12), rng.randrange(12), rng.randrange(12)):
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(terms)}
    return sparse(260), sparse(60)


REFERENCE_FACTORS = _reference_factors()


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work shaped like the program's own:
    the product of two fixed sparse polynomials.  It tracks the machine's
    speed on the program's long items better than a loop over a small dict."""
    f, g = REFERENCE_FACTORS
    start = perf_counter()
    product: dict = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2])
            product[e] = product.get(e, 0) + cf * cg
    return perf_counter() - start


@dataclass
class PassResult:
    item_s: list[float] = field(default_factory=list)  # wall time of each item
    item_scale: list[float] = field(default_factory=list)
    item_drift: list[float] = field(default_factory=list)  # see drift()
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)

    @property
    def scaled_s(self) -> float:
        return sum(t * k for t, k in zip(self.item_s, self.item_scale))


def drift(before: float, after: float) -> float:
    """How much the reference loop's time changed across a stretch, relative
    to its mean: near 0 when the machine's speed held, so the scale is sound."""
    return abs(after - before) / ((before + after) / 2)


def steady_median(samples) -> float:
    """Median of the values of the (value, drift) samples taken while the
    machine's speed held best: the half, rounded up, with the least drift."""
    steady = sorted(samples, key=lambda s: s[1])[:(len(samples) + 1) // 2]
    return statistics.median(value for value, _ in steady)


def item_times(passes) -> list[float]:
    """Each item's scaled time, the steady median over the passes."""
    return [steady_median([(p.item_s[i] * p.item_scale[i], p.item_drift[i])
                           for p in passes])
            for i in range(len(passes[0].item_s))]


def run_pass(items, tracer=None, scaled=False) -> PassResult:
    """One closed-loop pass over the items; a pass never stops on a failure.

    With ``scaled``, the reference loop is timed before the first item and
    after the first item that ends REFERENCE_EVERY_S or more after the last
    timing, and after the last item; each item's scale is REFERENCE_S over the
    mean of the two timings around it, and its drift their drift().  Without,
    every scale is 1 and every drift 0.
    """
    result = PassResult()
    gc.collect()
    before = reference_loop() if scaled else REFERENCE_S
    segment_s = 0.0
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = item.name
        t0 = perf_counter()
        try:
            got = item.run()
        except Exception as exc:  # counted as a failed item; the run goes on
            got = f"{type(exc).__name__}: {exc}"
        result.item_s.append(perf_counter() - t0)
        segment_s += result.item_s[-1]
        if segment_s >= REFERENCE_EVERY_S or index == len(items) - 1:
            after = reference_loop() if scaled else REFERENCE_S
            scale = REFERENCE_S / ((before + after) / 2)
            new = len(result.item_s) - len(result.item_scale)
            result.item_scale += [scale] * new
            result.item_drift += [drift(before, after)] * new
            before, segment_s = after, 0.0
        attempted, wrong = judge(item.expected, got)
        result.attempted += attempted
        for label in wrong:
            want, have = item.expected, got
            if label:  # one outcome of a dict-valued item
                want = item.expected[label]
                have = got.get(label) if isinstance(got, dict) else got
            result.failures.append({"item": item.name, "outcome": label,
                                    "expected": repr(want), "got": repr(have)})
    return result


def numpy_import_s(importtime_report: str) -> float:
    """Seconds spent importing numpy, from a ``-X importtime`` report; 0 when
    nothing imported it."""
    for line in importtime_report.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def probe_setup(workload: str, seed: int) -> dict:
    """Set the workload up in a fresh interpreter: the wall time of each step,
    ``setup_s`` from its start until the inputs are ready, and the scale."""
    before = reference_loop()
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "probe_setup.py"), workload,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe.pop("ready") - start
    probe["setup.import_numpy_s"] = numpy_import_s(proc.stderr)
    after = reference_loop()
    probe["scale"] = REFERENCE_S / ((before + after) / 2)
    probe["drift"] = drift(before, after)
    return probe


def setup_time(probes, name: str) -> float:
    return steady_median([(p[name] * p["scale"], p["drift"]) for p in probes])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def package_version(name: str) -> str:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def environment(workload: str, seed: int, items) -> dict:
    return {"python": platform.python_version(), "numpy": package_version("numpy"),
            "git_sha": git_sha(), "nproc": os.cpu_count(), "workload": workload,
            "seed": seed, "items": [[item.name, item.spec] for item in items]}


def median_of(passes, key) -> float:
    return statistics.median(key(p) for p in passes)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "vancyc" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'vancyc'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import OVERHEAD_METRIC, SETUP_METRICS, Tracer, layer_metric_units

    args = parse_args(argv, workloads.WORKLOADS)
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    items = workloads.build_items(args.workload, args.seed)
    env = environment(args.workload, args.seed, items)
    warm_up = run_pass(items)
    passes, traced, tracers = [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(run_pass(items, scaled=True))
        if args.trace:
            with Tracer() as tracer:
                traced.append(run_pass(items, tracer, scaled=True))
            tracers.append(tracer)

    if args.trace:
        units = layer_metric_units()
        per_pass = [{name: v * p.scaled_s / p.wall_s if units[name] == "s" else v
                     for name, v in t.layer_metrics().items()}
                    for t, p in zip(tracers, traced)]
        # median_low picks one pass's value, so counts stay whole numbers
        values = {name: statistics.median_low(m[name] for m in per_pass)
                  for name in per_pass[0]}
        for name in SETUP_METRICS:
            values[name] = setup_time(probes, name)
        values[OVERHEAD_METRIC] = sum(item_times(traced)) - sum(item_times(passes))
    else:
        units = END_TO_END_UNITS
        times = item_times(passes)
        values = {
            "run_s": sum(times),
            "slowest_item_s": max(times),
            "setup_s": setup_time(probes, "setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    every_pass = [warm_up] + passes + traced
    attempted = sum(p.attempted for p in every_pass)
    failures = [f for p in every_pass for f in p.failures]
    fail_ratio = len(failures) / attempted

    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, "metrics": metrics, "fail_ratio": fail_ratio,
              "attempted": attempted, "failures": failures,
              "pass_item_wall_s": [p.item_s for p in passes],
              "pass_item_scale": [p.item_scale for p in passes],
              "pass_item_drift": [p.item_drift for p in passes],
              "traced_pass_item_wall_s": [p.item_s for p in traced],
              "traced_pass_item_scale": [p.item_scale for p in traced],
              "setup_probes": probes,
              "spans": [s._asdict() for t in tracers[:1] for s in t.finished_spans()]}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"env python={env['python']} numpy={env['numpy']} git={env['git_sha']} "
          f"nproc={env['nproc']} workload={args.workload} seed={args.seed} "
          f"items={len(items)} passes={len(passes)}+{len(traced)} traced")
    for failure in failures[:20]:
        print(f"FAIL {failure['item']} {failure['outcome']} expected={failure['expected']} "
              f"got={failure['got']}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} unscaled run_s {median_of(passes, lambda p: p.wall_s):.6g} s, "
          f"median scale {median_of(passes, lambda p: p.scaled_s / p.wall_s):.4g}")
    print(f"{args.workload} fail_ratio {fail_ratio:.6g} ratio")
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
