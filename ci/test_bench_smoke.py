"""The benchmark's smoke runs, 3 s each, one table row each: every workload
traced on seed 1, then untraced on seeds 1 and 2. A row spawns bench/run.py
from the checkout root and fails unless the run exits 0 and its last stdout
line says `"correct": true`, and a traced run makes one book or depreciation
call per schedule row. Each failure shows the run's stdout and stderr, with
the FAIL lines bench/run.py prints for wrong outputs; pyproject's testpaths
keeps this out of a plain pytest.

    python -X dev -W error -m pytest -q ci/test_bench_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["cli-short", "batch-json", "batch-csv", "library-kernel"]
RUNS = [(w, 1, 1) for w in WORKLOADS] + [(w, seed, 0) for w in WORKLOADS for seed in (1, 2)]


@pytest.mark.parametrize("workload, seed, trace", RUNS,
                         ids=[f"{w}-seed{s}-{'traced' if t else 'untraced'}" for w, s, t in RUNS])
def test_bench_smoke(workload, seed, trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "3", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    out = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    assert proc.returncode == 0 and proc.stdout.endswith("}\n"), out
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["correct"] is True, out
    if trace:
        m = {name: metric["value"] for name, metric in run["metrics"].items()}
        calls = m["core.intrinsic_depreciation.calls"] + m["classic.book_value.calls"]
        assert calls == m["schedule.rows"], out
