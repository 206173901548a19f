"""The parallel benchmark harness: same results, submission order kept."""

from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.parallel import _seed_for, run_many, run_one

REPO = Path(__file__).resolve().parents[2]

#: Environment overrides of every ``BENCH_*.json`` ledger location.
LEDGER_ENV = ("REPRO_BENCH_HOTPATH", "REPRO_BENCH_PIPELINE",
              "REPRO_BENCH_SHARD", "REPRO_BENCH_TUNE",
              "REPRO_BENCH_BACKEND", "REPRO_BENCH_COLL")


def test_run_one_returns_text_and_perf_snapshot():
    res = run_one("fig3", "quick")
    assert res.name == "fig3"
    assert res.scale == "quick"
    assert "pipeline" in res.text
    assert res.elapsed > 0
    assert isinstance(res.perf, dict)


def test_seed_is_stable_and_distinct():
    assert _seed_for("fig5", "quick") == _seed_for("fig5", "quick")
    assert _seed_for("fig5", "quick") != _seed_for("fig5", "full")
    assert _seed_for("fig5", "quick") != _seed_for("tab2", "quick")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        run_many(["fig3"], scale="quick", jobs=0, record=False)


@pytest.mark.slow
def test_parallel_matches_serial_and_keeps_order():
    names = ["fig3", "ablB"]
    serial = run_many(names, scale="quick", jobs=1, record=False)
    parallel = run_many(names, scale="quick", jobs=2, record=False)
    assert [r.name for r in parallel] == names
    for s, p in zip(serial, parallel):
        assert s.text == p.text  # simulated results identical across workers


def test_no_record_writes_no_ledger(tmp_path, monkeypatch, capsys):
    """``--no-record`` must leave every ``BENCH_*.json`` untouched.

    ``scale`` pins ``BENCH_shard.json`` when recording; the redirected
    ledger paths catch a write without dirtying the repository, and the
    committed files are compared byte for byte as well.
    """
    committed = {p: p.read_bytes() for p in REPO.glob("BENCH_*.json")}
    assert committed
    for var in LEDGER_ENV:
        monkeypatch.setenv(var, str(tmp_path / f"{var}.json"))
    assert main(["scale", "--scale", "quick", "--no-record"]) == 0
    assert "Weak scaling" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert {p: p.read_bytes() for p in REPO.glob("BENCH_*.json")} == committed

