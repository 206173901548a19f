"""Checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
OCCUPANCIES = ("hw.d2h_busy_frac", "hw.h2d_busy_frac", "hw.exec_busy_frac",
               "ib.tx_busy_frac", "hw.overlap_factor")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def bench(workload, seed, trace=0, seconds=1, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(workload, seed, trace=0):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    record, final = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(final)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["p2p_vector", "alltoallv_fresh"])
def test_sim_us_identical_across_seeds(workload):
    _, first = result(workload, 1)
    _, second = result(workload, 2)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert first["metrics"]["sim_us"] == second["metrics"]["sim_us"]


def test_traced_run_reports_every_layer_and_fixed_occupancy():
    _, first = result("alltoallv_fresh", 1, trace=1)
    _, second = result("alltoallv_fresh", 2, trace=1)
    names = {m["name"] for m in spec()["per_layer"]}
    for res in (first, second):
        assert res["correct"]
        assert set(res["metrics"]) == names
    for name in OCCUPANCIES:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    # A fresh type per peer block, per side, on every rank.
    assert first["metrics"]["datatype.commits"]["value"] == 2 * 8 * 8
    assert first["metrics"]["tune.lookup_hit_ratio"]["value"] == 0.0


def test_record_counts_default_config_probe():
    record, final = result("p2p_vector", 3)
    ops = record["ops"]
    probe_failed = 0 if record["default_config"]["ok"] else 1
    assert ops["attempted"] == final["attempted"] + 1
    assert ops["failed"] == final["failed"] + probe_failed
    assert ops["failed_frac"] == ops["failed"] / ops["attempted"]
    assert record["host"]["cores"] >= 1


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_run_leaves_tracked_files_unchanged():
    def state():
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        diff = subprocess.run(["git", "diff"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout
        return status, diff

    before = state()
    for trace in (0, 1):
        assert bench("p2p_vector", 4, trace).returncode == 0
    assert state() == before


def test_spans_install_and_remove_hermetically():
    from repro.cuda.stream import _StreamOp
    from repro.mpi import pack, protocol
    from repro.sim.core import Environment
    from repro.sim.events import RECYCLABLE_CALLBACKS
    from spans import SpanRecorder

    originals = (Environment.run, _StreamOp._on_done, pack.pack_bytes,
                 protocol.pack_bytes)
    recyclable = set(RECYCLABLE_CALLBACKS)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert Environment.run is not originals[0]
        assert protocol.pack_bytes is not originals[3]  # aliases patched too
    finally:
        recorder.remove()
    assert (Environment.run, _StreamOp._on_done, pack.pack_bytes,
            protocol.pack_bytes) == originals
    assert set(RECYCLABLE_CALLBACKS) == recyclable


def test_generator_spans_time_each_resume():
    from spans import SpanRecorder

    def gen():
        got = yield 1
        yield got * 2
        return "done"

    recorder = SpanRecorder(layers={})
    timed = recorder._wrap(gen, "x", "k")()
    assert timed.__name__ == "gen"
    assert next(timed) == 1
    assert timed.send(5) == 10
    with pytest.raises(StopIteration) as stop:
        next(timed)
    assert stop.value.value == "done"
    assert recorder.calls["k"] == 1
    assert not recorder._stack
    assert recorder.self_s["x"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("p2p_vector", 1, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sharded_run_leaves_no_process(tmp_path):
    """The run stops the processes it starts (the shard workers and the
    resource tracker) and waits for them, so none is left when it exits."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")
    probe = tmp_path / "probe.py"
    probe.write_text(f"""\
import os, runpy, sys
sys.argv = [{str(RUN)!r}, "--workload", "stencil_weak64_shards2",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
sys.path.insert(0, {str(RUN.parent)!r})
try:
    runpy.run_path({str(RUN)!r}, run_name="__main__")
except SystemExit:
    pass
children = 0
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{{pid}}/stat").read()
    except OSError:
        continue
    children += stat.rsplit(")", 1)[1].split()[1] == str(os.getpid())
print("CHILDREN", children)
""")
    proc = subprocess.run([sys.executable, str(probe)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "CHILDREN 0"
