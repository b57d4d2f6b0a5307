"""Smoke test of the benchmark harness (tiny grids, one or two rounds).

Every workload runs untraced and traced at ``--scale smoke`` — all eight
in parallel, each in its own interpreter, exactly as the driver starts
them — and the JSON each prints must carry the names ``BENCHMARK.json``
declares; one more ``dist_2shard`` run checks that no process it started
is still there once it has exited.  No timing is asserted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


#: Runs its arguments as a command with itself as the sub-reaper, so a
#: process that outlives the command is re-parented here, not to pid 1,
#: and prints what is left (pid, state) once the command has exited.
SUBREAPER = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        fields = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
    except OSError:
        continue
    if int(fields[1]) == os.getpid():
        left.append((int(pid), fields[0]))
print(code, left)
"""


def command(workload: str, trace: int, *extra: str) -> list[str]:
    return [*RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke", *extra]


def start(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def runs():
    procs = {(w, t): start(*command(w, t)) for w in WORKLOADS for t in (0, 1)}
    procs["forced-failure"] = start(*command("cg_small", 0, "--expect-iters", "3"))
    procs["left-behind"] = start(sys.executable, "-c", SUBREAPER,
                                 *command("dist_2shard", 0))
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        out[key] = (proc.returncode, stdout, stderr)
    return out


def test_contract_names_are_well_formed():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_declared_metrics(runs, workload, trace):
    code, stdout, stderr = runs[(workload, trace)]
    assert code == 0, stdout + stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float)), metric["name"]
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
    assert "ops_attempted" in stdout


@pytest.mark.parametrize("workload", ("cg_large", "cg_small"))
def test_guarantee_probe_and_counter_checks_run(runs, workload):
    for trace in (0, 1):
        _, stdout, _ = runs[(workload, trace)]
        assert "guarantee probe: 1 flip corrected" in stdout
        assert "2 flips in one codeword detected" in stdout
        assert re.search(r"check counters as owed on [1-9]\d* protected ops", stdout)
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: cell["value"] for name, cell in result["metrics"].items()}
    assert values["protect.fused_products"] >= 1
    assert values["harness.ledger_coverage"] >= 0.95


def test_forced_check_failure_exits_non_zero(runs):
    code, stdout, _ = runs["forced-failure"]
    assert code != 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "iterations, recorded 3" in stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_no_process_outlives_a_run(runs):
    # The spawn context's resource tracker used to outlive dist_2shard.
    code, stdout, stderr = runs["left-behind"]
    assert code == 0, stderr
    assert stdout.strip() == "0 []"
