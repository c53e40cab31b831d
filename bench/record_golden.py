"""Record golden.json: every workload's outputs on the default seed.

    python3 bench/record_golden.py

Re-record only in a change that declares a new random stream or reduction
order and shows, in CHANGES.md, that old and new outputs agree to 1e-12
relative.
"""

import json
import sys

import checks
from run import WORKLOADS, run_pass


def main() -> int:
    golden = {}
    for workload, (threads, _unit) in WORKLOADS.items():
        report = run_pass(workload, checks.DEFAULT_SEED, threads)
        outs = [op["out"] for op in report["ops"]]
        if any(op["error"] for op in report["ops"]):
            print("%s raised; nothing recorded" % workload, file=sys.stderr)
            return 1
        if workload == "mc_sweep":
            golden[workload] = [{k: o[k] for k in ("family", "n", "rows")} for o in outs]
        elif workload == "exact_gls":
            golden[workload] = {"fits": [f for o in outs for f in o["fits"]]}
        else:
            golden[workload] = {"months": outs[0]["months"], "clipped": outs[0]["clipped"]}
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
