"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Generated inputs are a pure function of (seed, op index), also across
   interpreters (string hashing is randomised per process).
2. The metric names and units the benchmark prints equal those listed in
   BENCHMARK.json, and so do its workload names.
3. A short smoke run of every workload, plain and traced, ends with exit
   code 0 and a well-formed result line, and every op either passed its
   checks or was counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

import run  # noqa: E402  (perfbench/ is on sys.path when this file runs as a script)

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
print(json.dumps({name: [cls(int(sys.argv[3]), "").inputs(i) for i in range(-1, 5)]
                  for name, cls in workloads.WORKLOADS.items()}))
"""


def inputs_in_fresh_interpreter(seed: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, str(run.SRC), str(HERE), str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def check_inputs() -> list[str]:
    a, b, other = (inputs_in_fresh_interpreter(seed) for seed in (7, 7, 8))
    out = []
    for name in run.WORKLOADS:
        if a[name] != b[name]:
            out.append(f"{name}: inputs differ between two interpreters with the same seed")
        if a[name] == other[name]:
            out.append(f"{name}: seeds 7 and 8 give the same inputs")
        if len({json.dumps(x, sort_keys=True) for x in a[name]}) != len(a[name]):
            out.append(f"{name}: two ops of one run share their inputs")
    return out


def check_names(config: dict) -> list[str]:
    import spans

    out = []
    for key, expected in (("end_to_end", run.E2E), ("per_layer", spans.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in config[key]}
        if listed != expected:
            out.append(f"{key}: BENCHMARK.json lists {sorted(listed.items())}, "
                       f"the benchmark prints {sorted(expected.items())}")
    if [w["name"] for w in config["workloads"]] != list(run.WORKLOADS):
        out.append("workload names in BENCHMARK.json differ from run.WORKLOADS")
    return out


def check_smoke(config: dict) -> list[str]:
    out = []
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                out.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                out.append(f"{label}: result keys {sorted(result)}")
                continue
            names = {m["name"]: m["unit"] for m in config[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != names:
                out.append(f"{label}: printed metrics {sorted(printed)} != BENCHMARK.json {key}")
            if not (result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]):
                out.append(f"{label}: attempted={result['attempted']} failed={result['failed']}")
            if result["failed"] and result["correct"]:
                out.append(f"{label}: correct=true with {result['failed']} failed ops")
            if not result["failed"] and not result["correct"]:
                report = json.loads((ROOT / ".bench_out" / f"{name}-seed3-trace{trace}.json").read_text())
                out.append(f"{label}: once-per-run check failed: {report['final_check_failures']}")
            status = "ok" if result["correct"] else f"{result['failed']} of {result['attempted']} ops failed"
            print(f"smoke {label}: {status}", flush=True)
    return out


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = check_inputs() + check_names(config)
    if not failures:
        failures = check_smoke(config)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
