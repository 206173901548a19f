#!/usr/bin/env python3
"""The repository's benchmark: simulator host throughput and sim-time.

Run from the repository root::

    python3 perfbench/run.py --workload p2p_vector --seed 1 --seconds 20 --trace 0

Workloads (see :mod:`workloads`): ``p2p_vector``, ``stencil_weak64``,
``alltoallv_fresh``, ``stencil_weak64_shards2``. One process drives the
simulator through its public API; ``--seed`` drives only payload bytes
and the ``alltoallv_fresh`` constructor choice.

A run probes the default hardware config once, sets the workload up
several times (each set-up ends with one verified warm-up op), then runs
verified ops for ``--seconds``. Every op's output is checked: received
bytes against a NumPy reference of the sent payload, or stencil iteration
times against the first op's (and, sharded, against the sequential
engine's).

Host speed on a shared machine swings by up to 2x for seconds at a time,
so every host time is scaled to a reference speed by the frozen probe of
:mod:`calibrate`, taken right before and after it (about a tenth of the
run goes to probing). The run record keeps the raw times as well.

``--trace 0`` reports the end-to-end metrics, with tracing off:

``msgs_per_s``
    point-to-point deliveries (each collective peer block is one) per
    host second over the timed ops;
``setup_s``
    host seconds of one set-up plus its warm-up op, median over set-ups;
``peak_rss_mb``
    the process's resident-memory high-water mark;
``sim_us``
    simulated microseconds of the first timed op (deterministic).

``--trace 1`` spends the first half of ``--seconds`` on untraced ops, then
installs the span wrappers of :mod:`spans`, sets the workload up again
with an enabled :class:`~repro.sim.Tracer` and spends the second half on
traced ops. It reports the per-layer metrics, per op. Host-time spans
cover this process only: the shard workers of the sharded workload are
seen through the merged ``shard_*`` counters and the ``shard.s`` span.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (workload, seed, commit, host fingerprint, probe times,
default-config probe, raw per-op statistics and the same metrics).
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11
#: A timed phase runs at least this many ops, however long they take.
MIN_STEPS = 2
#: Share of host time spent probing host speed (see :mod:`calibrate`).
PROBE_SHARE = 0.1


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares (the one list of metric names)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- host and source facts ------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def source_state() -> dict:
    """Commit and dirty flag, when the tree is a git checkout."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def probe_default_config() -> dict:
    """Build one 2-node cluster at the unmodified default config.

    Its 12 GiB host arena is a single eager allocation; where the host
    refuses it, the probe reports the failure instead of hiding it.
    """
    from repro import Cluster

    try:
        Cluster(2)
    except MemoryError as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        gc.collect()
    return {"ok": True, "error": None}


# -- phases ---------------------------------------------------------------------
class Tally:
    """Attempted and failed ops of a run, the first errors seen, and the
    host-speed probes taken between ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.probes = []
        #: The probes taken right before the next timed interval.
        self.recent = []

    def pace(self, busy_s: float) -> list:
        """Probe host speed for PROBE_SHARE of ``busy_s`` (at least once),
        so probes sample the run evenly in time; returns the new probes."""
        group = []
        while not group or sum(group) < PROBE_SHARE * busy_s:
            group.append(calibrate.probe())
        self.probes.extend(group)
        self.recent = group
        return group

    def at_reference_speed(self, busy_s: float) -> float:
        """Scale host seconds just measured to the reference host speed,
        by the probes taken right before and right after them."""
        before = self.recent
        around = before + self.pace(busy_s)
        speed = statistics.fmean(calibrate.REFERENCE_S / p for p in around)
        return busy_s * speed

    def op(self, workload):
        """Run one prepared op; returns (deliveries, host seconds) or None."""
        self.attempted += 1
        workload.prepare()
        try:
            start = time.perf_counter()
            deliveries = workload.step()
            elapsed = time.perf_counter() - start
            error = workload.verify()
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
            return None
        return deliveries, elapsed


def set_up(workload, tally: Tally) -> dict:
    """One set-up plus its warm-up op: host seconds, raw and at the
    reference speed."""
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    tally.op(workload)
    raw = time.perf_counter() - start
    return {"raw": raw, "ref": tally.at_reference_speed(raw)}


def timed_phase(workload, tally: Tally, seconds: float, on_first=None) -> dict:
    """Run verified ops for ``seconds``.

    Returns the deliveries and host seconds (raw and at the reference
    speed) of every op, and the simulated seconds of the first op.
    """
    deliveries, raw, ref = [], [], []
    sim_s = None
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_STEPS or time.perf_counter() < deadline:
        outcome = tally.op(workload)
        if outcome is None:
            break  # the world's state is unknown after a failed op
        deliveries.append(outcome[0])
        raw.append(outcome[1])
        ref.append(tally.at_reference_speed(outcome[1]))
        if sim_s is None:
            sim_s = workload.last_sim_s
            if on_first is not None:
                on_first(workload)
    return {"deliveries": deliveries, "raw": raw, "ref": ref, "sim_s": sim_s}


def throughput(phase: dict, key: str = "ref") -> float:
    """Deliveries per host second over the whole timed phase."""
    return _ratio(sum(phase["deliveries"]), sum(phase[key]))


def mean_op_s(phase: dict) -> float:
    """Mean host seconds per op at the reference speed."""
    return _ratio(sum(phase["ref"]), len(phase["ref"]))


def occupancy(tracer, window, ranks: int) -> dict:
    """Simulated busy fractions of the copy/exec engines and HCA TX.

    Each fraction is busy time (overlapping intervals merged per engine)
    over the op's simulated window times the number of such engines.
    """
    from repro.sim.trace import union_duration as union

    start, end = window
    span = end - start
    per_engine = {}
    for iv in tracer.intervals:
        lo, hi = max(iv.start, start), min(iv.end, end)
        if hi > lo:
            per_engine.setdefault(iv.engine, []).append((lo, hi))

    busy = {kind: 0.0 for kind in ("d2h", "h2d", "exec", "tx")}
    gpu_spans = {}
    for engine, spans in per_engine.items():
        kind = engine.rsplit(".", 1)[-1]
        if kind in busy:
            busy[kind] += union(spans)
        if kind in ("d2h", "h2d", "exec"):
            gpu_spans.setdefault(engine.split(".", 1)[0], []).extend(spans)
    gpu_union = sum(union(spans) for spans in gpu_spans.values())
    den = span * ranks
    return {
        "hw.d2h_busy_frac": _ratio(busy["d2h"], den),
        "hw.h2d_busy_frac": _ratio(busy["h2d"], den),
        "hw.exec_busy_frac": _ratio(busy["exec"], den),
        "ib.tx_busy_frac": _ratio(busy["tx"], den),
        "hw.overlap_factor": _ratio(busy["d2h"] + busy["h2d"] + busy["exec"],
                                    gpu_union),
    }


def traced_phase(make_workload, tally: Tally, seconds: float) -> dict:
    """Set up under the span wrappers and run traced ops for ``seconds``."""
    from repro.perf import PERF
    from repro.sim import Tracer
    from spans import SpanRecorder

    tracer = Tracer(enabled=True)
    workload = make_workload(tracer)
    recorder = SpanRecorder()
    occupied = {}
    recorder.install()
    try:
        set_up(workload, tally)
        recorder.reset()
        before = PERF.snapshot()
        phase = timed_phase(
            workload, tally, seconds,
            on_first=lambda wl: occupied.update(
                occupancy(tracer, wl.last_window, wl.ranks)
            ),
        )
        after = PERF.snapshot()
    finally:
        recorder.remove()
    counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return {"phase": phase, "recorder": recorder, "counters": counters,
            "occupancy": occupied}


def layer_metrics(traced: dict, untraced_op_s: float) -> dict:
    """Per-op per-layer metrics from one traced phase.

    Host times are at the reference speed, like the end-to-end metrics;
    ``untraced_op_s`` is the mean op time without tracing.
    """
    rec = traced["recorder"]
    c = traced["counters"]
    phase = traced["phase"]
    steps = len(phase["raw"])
    speed = _ratio(sum(phase["ref"]), sum(phase["raw"]))

    def per_op(value):
        return value / steps if steps else 0.0

    def self_s(layer):
        return per_op(rec.self_s[layer]) * speed

    def incl(*keys):
        return per_op(sum(rec.incl_s.get(k, 0.0) for k in keys)) * speed

    shard_events = [v for k, v in c.items()
                    if k.startswith("shard") and k.endswith("_events")]
    events = per_op(rec.events + sum(shard_events))
    metrics = {
        "sim.self_s": self_s("sim"),
        "sim.events": events,
        "sim.us_per_event": _ratio(untraced_op_s * 1e6, events),
        "sim.pool_hit_ratio": _ratio(
            c.get("event_pool_hit", 0),
            c.get("event_pool_hit", 0) + c.get("event_pool_miss", 0)),
        "sim.wheel_hit_ratio": _ratio(
            c.get("event_wheel_hit", 0),
            c.get("event_wheel_hit", 0) + c.get("event_wheel_miss", 0)),
        "datatype.s": self_s("datatype"),
        "datatype.commits": per_op(
            rec.calls["repro.mpi.datatype.Datatype.commit"]),
        "datatype.commit_s": incl("repro.mpi.datatype.Datatype.commit"),
        "datatype.seg_cache_hit_ratio": _ratio(
            c.get("seg_cache_hit", 0),
            c.get("seg_cache_hit", 0) + c.get("seg_cache_miss", 0)),
        "dtir.collision_ratio": _ratio(
            c.get("dtir_collision", 0), c.get("dtir_canon", 0)),
        "plan.compile_s": incl("repro.core.plan.TransferPlan.compile"),
        "plan.cache_hit_ratio": _ratio(
            c.get("plan_cache_hit", 0),
            c.get("plan_cache_hit", 0) + c.get("plan_cache_miss", 0)),
        "pack.s": self_s("pack"),
        "pack.bytes": per_op(sum(rec.bytes.values())),
        "pack.index_reuse_ratio": _ratio(
            c.get("index_reuse", 0),
            c.get("index_reuse", 0) + c.get("index_build", 0)),
        "pipeline.flows": per_op(
            rec.calls["repro.core.pipeline.GpuNcEngine.isend_device"]),
        "pipeline.s": self_s("pipeline"),
        "backends.s": self_s("backends"),
        "backends.chunks.gpu": per_op(c.get("backend_gpu_chunks", 0)),
        "backends.chunks.host": per_op(c.get("backend_host_chunks", 0)),
        "backends.chunks.nic": per_op(c.get("backend_nic_chunks", 0)),
        "protocol.s": self_s("protocol"),
        "tune.resolve_s": incl("repro.tune.table.tuned_transfer_choice"),
        "tune.lookup_hit_ratio": _ratio(
            c.get("tune_lookup_hit", 0),
            c.get("tune_lookup_hit", 0) + c.get("tune_lookup_miss", 0)),
        "tune.chunk_clamped": per_op(c.get("tune_chunk_clamped", 0)),
        "coll.rounds": per_op(c.get("coll_rounds", 0)),
        "coll.messages": per_op(c.get("coll_messages", 0)),
        "coll.s": self_s("coll"),
        "cuda.s": self_s("cuda"),
        "ib.s": self_s("ib"),
        "app.s": self_s("app"),
        "shard.s": self_s("shard"),
        "shard.rounds": per_op(c.get("shard_rounds", 0)),
        "shard.windows_per_round": _ratio(
            c.get("shard_windows", 0), c.get("shard_rounds", 0)),
        "shard.cross_msgs": per_op(sum(
            c.get(k, 0) for k in ("shard_xmsg_ctl", "shard_xmsg_rdma",
                                  "shard_xmsg_rreq", "shard_xmsg_rresp"))),
        "shard.pipe_bytes": per_op(
            c.get("shard_direct_bytes", 0) + c.get("shard_batch_bytes", 0)),
        "shard.event_imbalance": _ratio(
            max(shard_events, default=0),
            statistics.fmean(shard_events) if shard_events else 0),
        "trace.overhead_frac": _ratio(mean_op_s(phase), untraced_op_s) - 1.0
        if untraced_op_s else 0.0,
    }
    metrics.update(traced["occupancy"])
    return metrics


# -- entry point ----------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (run record, result object)."""
    from repro.sim import Tracer
    from workloads import ARENA, WORKLOADS

    cls = WORKLOADS[name]

    def make(tracer):
        return cls(ROOT, seed, tracer)

    default_cfg = probe_default_config()
    tally = Tally()
    workload = make(Tracer(enabled=False))
    setups = [set_up(workload, tally) for _ in range(SETUPS)]
    budget = seconds / 2 if trace else seconds
    phase = timed_phase(workload, tally, budget)

    if trace:
        del workload
        traced = traced_phase(make, tally, seconds - budget)
        metrics = layer_metrics(traced, mean_op_s(phase))
        metrics["probe.default_config_failed"] = 0 if default_cfg["ok"] else 1
        units = metric_units("per_layer")
    else:
        metrics = {
            "msgs_per_s": throughput(phase),
            "setup_s": statistics.median(s["ref"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_us": (phase["sim_s"] or 0.0) * 1e6,
        }
        units = metric_units("end_to_end")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }
    # failed_frac counts the default-config probe as one more attempted op,
    # so the arena defect shows here until that config builds.
    probe_failed = 0 if default_cfg["ok"] else 1
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **source_state(),
        "host": host_fingerprint(),
        "calibration_s": _quartiles(tally.probes),
        "arena": ARENA,
        "default_config": default_cfg,
        "ops": {
            "attempted": tally.attempted + 1,
            "failed": tally.failed + probe_failed,
            "failed_frac": (tally.failed + probe_failed) / (tally.attempted + 1),
            "errors": tally.errors,
        },
        "setup_s": setups,
        "timed_ops": len(phase["raw"]),
        "op_s": {"raw": _quartiles(phase["raw"]), "ref": _quartiles(phase["ref"])},
        "msgs_per_s_raw": throughput(phase, "raw"),
        "metrics": result["metrics"],
    }
    return record, result


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The sharded engine joins its workers itself, but its shared memory
    and semaphores start multiprocessing's resource tracker, a helper
    process that would otherwise outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes its pipe, then waits for it to exit


def _quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import TUNING_TABLE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if not (ROOT / TUNING_TABLE).is_file():
        print(f"perfbench: missing tuning table {TUNING_TABLE}", file=sys.stderr)
        return 2

    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
