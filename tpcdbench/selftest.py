"""Self-tests of the benchmark (not part of the repository's tier-1 run).

Run from the repository root::

    python3 -m pytest -q tpcdbench/selftest.py

They prove that a wrong answer fails the run instead of counting as a
slow request (an injected wrong expected checksum, and an injected
diverging oracle text), and that a tiny run of every workload emits
every metric ``BENCHMARK.json`` names, with its unit.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import verify  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
with open(os.path.join(HERE, "record.json")) as _f:
    RECORD = json.load(_f)

def _run(capsys, workload, trace=0, seconds=0.3, seed=5):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


@pytest.mark.parametrize("workload", ["power", "throughput"])
def test_wrong_expected_checksum_fails_the_run(capsys, monkeypatch,
                                               workload):
    real = verify.Answers.expect

    def wrong(self, key):
        expected = real(self, key)
        return None if expected is None else "0" * 40

    monkeypatch.setattr(verify.Answers, "expect", wrong)
    code, out = _run(capsys, workload)
    assert code == 2
    assert not out, "a failed run must print no result"


@pytest.mark.parametrize("workload", ["power", "adhoc"])
def test_diverging_oracle_text_fails_the_run(capsys, monkeypatch,
                                             workload):
    real = verify.Oracle.sqlite_text

    def diverging(self, number, params):
        if number == 6:
            return "SELECT sum(l_extendedprice) AS revenue FROM lineitem"
        return real(self, number, params)

    monkeypatch.setattr(verify.Oracle, "sqlite_text", diverging)
    code, out = _run(capsys, workload, seconds=1.0)
    assert code == 2
    assert not out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["power", "throughput", "adhoc"])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload,
                                                   trace):
    code, out = _run(capsys, workload, trace=trace)
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_record_covers_every_declared_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(RECORD["workloads"]) == set(run.WORKLOADS)
    layers = RECORD["per_layer"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers)
    for name, entry in layers.items():
        assert entry["moves"] and entry["workload"], name


def test_empty_checkout_exits_nonzero(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "tpcdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "tpcdbench/run.py", "--workload", "power",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
