#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload session_sweep --seed 0 \\
        --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
while ``speed.Speedometer`` samples the host's speed all through the
run: times are reported at reference host speed (see ``speed.py``).
``--trace 1`` runs one round with every layer boundary wrapped, then the
same round again untraced as a reference, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, the run's output digest and
host diagnostics (steal share, involuntary context switches, wall-clock
throughput, the host's mean speed and the raw times), which are printed
but not gated.

``--seconds`` is the least time the timed phase lasts: a run completes
whole rounds until that much time has passed, and always at least one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import host
import layers
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics of untraced runs, with their units.
END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("video_s_per_cpu_s", "content-s/cpu-s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class OpRecord:
    """Outcome of one op: timing, resource use and verification."""

    label: str
    wall_s: float
    usage: host.Usage  # over the op
    digest: Optional[str]
    content_s: float
    error: str = ""
    #: What the speed probes said about the op; None when none ran.
    window: Optional[speed.Window] = None

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def ref_wall_s(self) -> float:
        """Wall time at reference host speed, the probes taken out.

        The probes took their share of the CPU time of every process
        that ran them, which stretched the op's wall time by as much.
        """
        if self.window is None:
            return self.wall_s
        cpu = self.usage.cpu_s
        share = min(self.window.cpu_s / cpu, 1.0) if cpu > 0 else 0.0
        return self.wall_s * (1.0 - share) * self.window.speed

    @property
    def ref_cpu_s(self) -> float:
        """CPU time at reference host speed, the probes taken out."""
        if self.window is None:
            return self.usage.cpu_s
        return (self.usage.cpu_s - self.window.cpu_s) * self.window.speed


def run_ops(workload, ops, goldens: Dict[str, str],
            records: List[OpRecord], meter=None) -> None:
    """Run ops one after another, verifying each output.

    An exception or a digest that differs from the golden recorded for
    the op's inputs makes the op failed; the loop goes on either way.
    With a running ``meter``, each record carries the probes' verdict
    on its op.
    """
    # On a pool the workers probe themselves; see speed.Speedometer.
    quiet = meter is not None and workload.fans_out
    for op in ops:
        u0 = host.usage()
        t0 = perf_counter()
        try:
            if quiet:
                meter.quiet = True
            try:
                output = op.call()
            finally:
                if quiet:
                    meter.quiet = False
            t1 = perf_counter()
            usage = host.usage() - u0
            digest = workload.digest(output)
            workload.check(output)
            content = workload.content_s(output)
        except Exception as exc:  # a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            records.append(OpRecord(op.label, perf_counter() - t0,
                                    host.usage() - u0, None, 0.0,
                                    f"{type(exc).__name__}: {exc}"))
            continue
        expected = goldens.get(op.label)
        error = ""
        if expected is not None and digest != expected:
            error = f"digest {digest[:16]} differs from golden {expected[:16]}"
        window = None
        if meter is not None:
            meter.collect()
            window = meter.window(t0, t1)
        records.append(OpRecord(op.label, t1 - t0, usage, digest, content,
                                error, window))


def run_round(workload, seed: int, rnd: int, goldens, records,
              meter=None) -> None:
    workload.begin_round()
    run_ops(workload, workload.ops(seed, rnd), goldens, records, meter)


def run_digest(records: List[OpRecord]) -> str:
    """One digest over every op's label and output digest, in op order."""
    h = hashlib.sha256()
    for record in records:
        h.update(f"{record.label}={record.digest}\n".encode("utf-8"))
    return h.hexdigest()


def _median_ms(records: List[OpRecord], key=lambda r: r.wall_s) -> float:
    ok = [r for r in records if r.ok] or records
    return statistics.median(key(r) for r in ok) * 1000.0


def _p90_ms(records: List[OpRecord]) -> float:
    walls = [r.wall_s for r in records]
    if len(walls) < 2:
        return walls[0] * 1000.0 if walls else 0.0
    return statistics.quantiles(walls, n=10, method="inclusive")[-1] * 1000.0


def setup_ref_s(meter: speed.Speedometer, ticks0) -> float:
    """This process's set-up time so far, at reference host speed.

    The process's age (interpreter start and imports count), less the
    probes that ran in it, times the probes' mean speed and one minus
    the steal share since ``ticks0``.
    """
    age = host.process_age_s()
    window = meter.window(float("-inf"), perf_counter())
    steal = host.steal_share(ticks0, host.cpu_ticks())
    return (age - window.cpu_s) * window.speed * (1.0 - steal)


def repeated_setup_s(workload, first: float) -> float:
    """Median set-up time over ``workload.setup_repeats`` set-ups.

    ``first`` is this process's; the others run in child processes
    that stop where the first op would start and report their own
    set-up time at reference speed.
    """
    ages = [first]
    for _ in range(workload.setup_repeats - 1):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload.name, "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        ages.append(float(child.stdout.split()[-1]))
    return statistics.median(ages)


def measure(workload, seed: int, seconds: float, goldens,
            meter: speed.Speedometer, ticks0, out) -> Dict:
    """Untraced run: set-up, then whole rounds for at least ``seconds``.

    ``meter`` has been probing since the process started; ``ticks0``
    are the VM's CPU ticks from then.  Times are at reference host
    speed and, for wall times, net of the hypervisor's steal.
    """
    setup_failures = workload.setup(goldens)
    setup_s = setup_ref_s(meter, ticks0)
    records: List[OpRecord] = []
    u0 = host.usage()
    ticks1 = host.cpu_ticks()
    t0 = perf_counter()
    rounds = 0
    while True:
        run_round(workload, seed, rounds, goldens, records, meter)
        rounds += 1
        if perf_counter() - t0 >= seconds:
            break
    elapsed = perf_counter() - t0
    meter.stop()
    used = host.usage() - u0
    steal = host.steal_share(ticks1, host.cpu_ticks())
    timed = meter.window(t0, t0 + elapsed)
    content = sum(r.content_s for r in records)
    ref_cpu_s = sum(r.ref_cpu_s for r in records)
    peak_rss = host.peak_rss_mb()  # before the set-up children
    metrics = {
        "setup_s": repeated_setup_s(workload, setup_s),
        # Steal inflates wall times but not the probes' CPU times, so
        # it is taken out on its own: on a shared 2-vCPU VM its share
        # moved between 5 and 26 % from run to run.
        "op_p50_ms": _median_ms(records, key=lambda r: r.ref_wall_s)
        * (1.0 - steal),
        "video_s_per_cpu_s": content / ref_cpu_s if ref_cpu_s > 0 else 0.0,
        "peak_rss_mb": peak_rss,
    }
    cpu_p50_ms = statistics.median(r.usage.cpu_s for r in records) * 1000.0
    print(f"rounds {rounds}  ops {len(records)}  timed {elapsed:.3f} s  "
          f"cpu {used.cpu_s:.3f} s  raw wall op p50 "
          f"{_median_ms(records):.3f} ms  raw cpu op p50 "
          f"{cpu_p50_ms:.3f} ms", file=out)
    probe_share = timed.cpu_s / used.cpu_s if used.cpu_s else 0.0
    print(f"host speed {timed.speed:.4f}  probes {timed.probes} "
          f"({probe_share:.1%} of the timed CPU time)  "
          f"steal_share {steal:.4f}  involuntary_switches "
          f"{used.involuntary_switches}  video_s_per_s "
          f"{content / elapsed:.3f}  raw video_s_per_cpu_s "
          f"{content / used.cpu_s if used.cpu_s else 0.0:.3f}", file=out)
    return _result(records, setup_failures, metrics, END_TO_END_METRICS, out)


def measure_traced(workload, seed: int, goldens, out) -> Dict:
    """Traced run: round 0 traced, then round 0 again untraced.

    The traced round comes first, so on ``prep_cold`` its layer metrics
    describe the same first-in-process prep the untraced runs time; the
    reference round then runs warm, which makes ``trace.overhead_pct``
    err high rather than low.
    """
    setup_failures = workload.setup(goldens)
    spool = tempfile.mkdtemp(prefix=".perfbench-spool-", dir=ROOT)
    try:
        recorder = layers.Recorder(spool)
        installation = layers.install(recorder)
        traced: List[OpRecord] = []
        try:
            run_round(workload, seed, 0, goldens, traced)
        finally:
            installation.undo()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    reference: List[OpRecord] = []
    run_round(workload, seed, 0, goldens, reference)

    metrics = recorder.metrics()
    for record, again in zip(reference, traced):
        if again.ok and again.digest != record.digest:
            again.error = "traced output differs from the untraced round"
    records = traced + reference

    fan_out = {"execution.parent_cpu_s": 0.0, "execution.child_cpu_s": 0.0,
               "execution.child_page_faults": 0.0,
               "execution.cpu_overhead_pct": 0.0, "execution.speedup": 0.0}
    if workload.fans_out:
        # CPU figures come from the untraced round; the serial reference
        # runs last because a serial call warms the parent, which would
        # hide the children's warm-up from any later pooled call.
        serial: List[OpRecord] = []
        run_ops(workload, [workload.serial_op(seed)], goldens, serial)
        first = reference[0]
        if serial[0].ok and serial[0].digest != first.digest:
            serial[0].error = "workers=1 output differs from workers=2"
        records += serial
        fan_out["execution.parent_cpu_s"] = sum(
            r.usage.self_cpu_s for r in reference)
        fan_out["execution.child_cpu_s"] = sum(
            r.usage.child_cpu_s for r in reference)
        fan_out["execution.child_page_faults"] = float(sum(
            r.usage.child_page_faults for r in reference))
        serial_cpu = serial[0].usage.cpu_s
        if serial_cpu > 0:
            fan_out["execution.cpu_overhead_pct"] = (
                first.usage.child_cpu_s / serial_cpu - 1.0) * 100.0
        if first.wall_s > 0:
            fan_out["execution.speedup"] = serial[0].wall_s / first.wall_s
    metrics.update(fan_out)

    ref_wall = sum(r.wall_s for r in reference)
    metrics["op.p90_ms"] = _p90_ms(reference)
    metrics["op.samples"] = float(len(reference))
    metrics["trace.overhead_pct"] = (
        (sum(r.wall_s for r in traced) / ref_wall - 1.0) * 100.0
        if ref_wall else 0.0
    )
    return _result(records, setup_failures, metrics,
                   layers.PER_LAYER_METRICS, out)


def _result(records, setup_failures, metrics, catalog, out) -> Dict:
    failed = [r for r in records if not r.ok]
    for message in setup_failures:
        print(f"FAILED {message}", file=sys.stderr)
    for record in failed:
        print(f"FAILED op {record.label}: {record.error}", file=sys.stderr)
    print(f"ops attempted {len(records)}  failed {len(failed)}  "
          f"digest {run_digest(records)}", file=out)
    for name, unit in catalog:
        print(f"{name} {metrics[name]:.6g} {unit}", file=out)
    return {
        "correct": not failed and not setup_failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in catalog
        },
    }


def record_goldens(workload, records: List[OpRecord], goldens, path) -> None:
    """Store this run's digests (and bbb's manifest) as goldens."""
    table = goldens.setdefault(workload.golden_key, {})
    for record in records:
        table[record.label] = record.digest
    prepared = getattr(workload, "prepared", None)
    if prepared is not None:
        goldens.setdefault("manifests", {})["bbb"] = \
            workloads.manifest_digest(prepared)
    with open(path, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one VOXEL benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="store round 0's digests in goldens.json")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the process age, and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    # Untraced runs probe the host's speed from here on, so the set-up
    # gets its share of probes too.  Pool workers spool theirs.
    ticks0 = host.cpu_ticks()
    probing = not (args.trace or args.record_goldens)
    spool = None
    if probing and workloads.WORKLOADS[args.workload].fans_out:
        spool = tempfile.mkdtemp(prefix=".perfbench-spool-", dir=ROOT)
    meter = speed.Speedometer(spool=spool)
    if probing:
        meter.start()
    try:
        return _main(args, meter, ticks0)
    finally:
        meter.stop()
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)


def _main(args, meter: speed.Speedometer, ticks0) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup({})
        print(setup_ref_s(meter, ticks0))
        return 0
    goldens = workloads.load_goldens()
    table = goldens.get(workload.golden_key, {})
    out = sys.stdout
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}",
          file=out)
    if args.record_goldens:
        workload.setup({})
        records: List[OpRecord] = []
        run_round(workload, args.seed, 0, {}, records)
        record_goldens(workload, records, goldens, workloads.GOLDENS_PATH)
        print(f"recorded {len(records)} goldens", file=out)
        return 0
    if args.trace:
        result = measure_traced(workload, args.seed, table, out)
    else:
        result = measure(workload, args.seed, args.seconds, table, meter,
                         ticks0, out)
    out.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
