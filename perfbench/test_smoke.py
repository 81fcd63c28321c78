"""Smoke test of the benchmark on reduced inputs; not part of the tier-1 suite.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_named_with_units(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_and_spans():
    result = result_of(run_bench("kz", 1))
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("kz.monodromy_s", "kz.assemble_s", "kz.monodromy_calls",
                 "groups.build_s", "exact.cycnum_mul_calls", "cli.import_s"):
        assert values[name] > 0, name
    spans = [json.loads(line) for line in
             (ROOT / ".perfbench" / "spans-kz.jsonl").read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"cli.import", "kz.monodromy", "kz.gamma_scan"}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_output_checks_catch_wrong_outputs():
    import workloads

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    out = workloads.Outcome(expected)
    g = out.exact("S3:group", lambda: workloads.groups.build_group("S3"), lambda g: g.info())
    assert out.failures == {}
    out.exact("S3:group", lambda: g, lambda g: dict(g.info(), order=7))
    out.exact("S3:chars", lambda: 1 / 0)
    assert out.incorrect == ["S3:group"]
    assert set(out.failures) == {"S3:group", "S3:chars"}
    assert out.attempted == 3

    table = workloads.chars.character_table(g)
    fs = workloads.fake.FakeDegreeSet(g, table)
    pairs = dict(expected["gamma_pairs"]["S3"])
    pairs["1,0"] = [[0, 1], [1, 0], [2, 2]]
    tampered = dict(expected, gamma_pairs={"S3": pairs})
    out = workloads.Outcome(tampered)
    workloads.gamma_op(out, "S3", fs)
    assert out.incorrect == ["S3:gamma"]
    out = workloads.Outcome(expected)
    workloads.gamma_op(out, "S3", fs)
    assert out.failures == {} and len(out.residuals) == 1


def test_speed_probe_rescales_by_the_kernel_runs_inside():
    import speed

    probe = speed.SpeedProbe()
    # kernel runs at t = 1 ... 4 taking twice the nominal time (half speed),
    # and at t = 10 ... 13 taking the nominal time
    probe.starts = [1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0]
    probe.kernels = [2 * speed.NOMINAL_S] * 4 + [speed.NOMINAL_S] * 4
    # 4 s with four kernel runs inside: the rest is own time, at half speed
    own = 4.0 - 8 * speed.NOMINAL_S
    assert probe.rescale(0.5, 4.5) == pytest.approx(own / 2)
    # no run inside: the four nearest, all at nominal speed
    assert probe.rescale(10.2, 10.8) == pytest.approx(0.6)
