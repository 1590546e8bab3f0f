"""Run the benchmark in two sets and compare each metric's spread to its bound.

Usage, from the root of a checkout:

    python3 bench/spread.py

For every workload in ``BENCHMARK.json`` it makes two sets of ``RUNS``
runs of ``run_seconds`` each, one run at a time: set 1 of every workload,
then set 2. Each run has a seed of its own. For every end-to-end metric
it prints, per set, the median and the spread (distance between the
first and third quartile, as ``statistics.quantiles(values, n=4)`` gives
them, over the median), and how far set 2's median moved from set 1's in
the worse direction. A spread above a third of the bound is flagged ``wide``;
a spread or a move above the bound is flagged ``FAIL``, as is a wrong
output or any difference in the share of failed operations between the
sets. Beside the metrics it prints the spread of the raw, unnormalised
``setup_s``, for comparison. The exit code is 1 if anything failed. Every
run's whole standard output is written to ``bench/out/spread-<time>.json``.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
_RAW_SETUP = re.compile(r"^# raw: setup_s ([0-9.]+);", re.MULTILINE)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> str:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def run_set(bench: dict, workload: str, first_seed: int) -> list[str]:
    outputs = []
    for seed in range(first_seed, first_seed + RUNS):
        t0 = time.monotonic()
        outputs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
        print(f"  {workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr, flush=True)
    return outputs


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    # Set 1 of every workload, then set 2, so that the sets are apart in time.
    sets = [
        {w: run_set(bench, w, 1 + RUNS * (len(workloads) * k + i)) for i, w in enumerate(workloads)}
        for k in range(2)
    ]
    outputs = {w: (sets[0][w], sets[1][w]) for w in workloads}

    out = ROOT / "bench" / "out" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(outputs), encoding="utf-8")

    ok = True
    print(f"2 sets x {RUNS} runs, {bench['run_seconds']} s each; raw results in {out.relative_to(ROOT)}")
    print(f"{'workload':17} {'metric':13} {'bound':>5}  {'median1':>10} {'spread':>6}  "
          f"{'median2':>10} {'spread':>6}  worse_by  verdict")
    for w in workloads:
        set1, set2 = ([json.loads(o.strip().splitlines()[-1]) for o in outs] for outs in outputs[w])
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in (set1, set2)]
        if not all(r["correct"] for r in set1 + set2) or shares[0] != shares[1]:
            ok = False
            print(f"{w}: FAIL correct={[r['correct'] for r in set1 + set2]} failed shares={shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v1, v2 = ([r["metrics"][name]["value"] for r in rs] for rs in (set1, set2))
            m1, m2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            worse = (m2 - m1) / m1 * (1 if metric["better"] == "lower" else -1)
            verdict = "ok"
            if max(s1, s2) > bound / 3:
                verdict = "wide"
            if max(s1, s2) > bound or worse > bound:
                verdict, ok = "FAIL", False
            print(f"{w:17} {name:13} {bound:5.2f}  {m1:10.4g} {s1:6.3f}  {m2:10.4g} {s2:6.3f}  "
                  f"{worse:+8.3f}  {verdict}")
        raw = [[float(_RAW_SETUP.search(o).group(1)) for o in outs] for outs in outputs[w]]
        print(f"{w:17} {'raw setup_s':13} {'':5}  " + "  ".join(
            f"{statistics.median(v):10.4g} {spread(v):6.3f}" for v in raw) + "  (not normalised)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
