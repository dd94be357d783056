"""Compare two benchmark records written by ``run.py --record``.

    python3 perfbench/compare.py PARENT.json CHANGE.json

For every workload in both records, prints each end-to-end metric of
BENCHMARK.json with its relative change and marks a change worse than the
metric's bound. A moved loss fingerprint is printed as a note, not as a
failure: a change that alters the arithmetic has to say why. Single runs
are noisy; the bounds are meant for medians over repeated runs.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(parent_path, change_path):
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent = {(r["workload"], r["trace"]): r for r in json.loads(Path(parent_path).read_text())["runs"]}
    change = {(r["workload"], r["trace"]): r for r in json.loads(Path(change_path).read_text())["runs"]}
    worse = 0
    for key in sorted(parent.keys() & change.keys()):
        old, new = parent[key], change[key]
        print(f"== {key[0]}  trace={key[1]}  seeds {old['seed']} -> {new['seed']}")
        for name, m in new["metrics"].items():
            if name not in old["metrics"]:
                continue
            a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
            rel = (b - a) / a if a else 0.0
            line = f"  {name:38s} {a:>14.6g} -> {b:<14.6g} {100 * rel:+7.2f} %"
            if name in spec:
                sign = 1.0 if spec[name]["better"] == "lower" else -1.0
                if sign * rel > spec[name]["bound"]:
                    line += f"  WORSE than bound {spec[name]['bound']}"
                    worse += 1
            print(line)
        if old["seed"] == new["seed"] and old["fingerprint"] != new["fingerprint"]:
            print(f"  note: loss fingerprint moved {old['fingerprint']} -> {new['fingerprint']}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
