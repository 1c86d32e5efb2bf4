"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

1. The input generators are deterministic: the same seed gives
   byte-identical inputs, another seed gives different ones.
2. Two traced runs with the same seed give identical counts (every
   per-layer metric whose unit is "count", and the count ratio
   pairing.miller_per_pairing).
3. The traced runs confirm each DDH workload's dominant layer: on ddh-ex2
   weil_pairing takes more total time than dlog2d, on cm-ell less.

Prints one PASS/FAIL line per check; exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
COUNT_RATIOS = ("pairing.miller_per_pairing",)


def inputs_bytes(wl, seed, rounds=3):
    data = wl.generate(seed)
    rows = [wl.round_inputs(data, r) for r in range(rounds)]
    return json.dumps([data, rows], sort_keys=True).encode()


def traced_run(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count" or k in COUNT_RATIOS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    results = []

    def report(ok, text):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {text}", flush=True)

    for name, wl in WORKLOADS.items():
        first = inputs_bytes(wl, seed)
        report(first == inputs_bytes(wl, seed),
               f"{name}: seed {seed} regenerates byte-identical inputs")
        report(first != inputs_bytes(wl, seed + 1),
               f"{name}: seed {seed + 1} gives different inputs")

    total = {}
    for name in WORKLOADS:
        (code1, r1), (code2, r2) = traced_run(name, seed), traced_run(name, seed)
        report(code1 == code2 == 0 and r1["correct"] and r2["correct"],
               f"{name}: traced runs correct")
        c1, c2 = counts(r1["metrics"]), counts(r2["metrics"])
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        report(not diff and c1.keys() == c2.keys(),
               f"{name}: {len(c1)} counts repeat exactly"
               + (f" (differ: {', '.join(diff)})" if diff else ""))
        m = r1["metrics"]
        total[name] = (m["pairing.weil_pairing.total_s"]["value"],
                       m["torsion.dlog2d.total_s"]["value"])

    weil, dlog = total["ddh-ex2"]
    report(weil > dlog, f"ddh-ex2: weil_pairing {weil:.3f} s > dlog2d {dlog:.3f} s")
    weil, dlog = total["cm-ell"]
    report(dlog > weil, f"cm-ell: dlog2d {dlog:.3f} s > weil_pairing {weil:.3f} s")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
