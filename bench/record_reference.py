"""Record the exact-field reference that check.py compares outputs with.

Run from the root of a cremlat checkout, at the commit whose outputs are the
reference:

    python3 bench/record_reference.py --seeds 0-19

For every call of every workload at each seed it runs ``cremlat.cli.main``
in this process and stores a digest of the output's exact fields (floats
removed, see ``check.exact_fields``), keyed by a digest of the arguments.
It also stores the degree-8 Salem list up to 2.0, and lists every call that
fails, with its position in the call list and the exception.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import check
import gen
from run import in_process

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-19", help="inclusive range like 0-19")
    ap.add_argument("--out", default=str(HERE / "reference.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    from cremlat import cli

    rec = in_process(cli.main, ("salem-enum", "--degree-bound", "8", "--upper", "2.0"))
    salem = [(e["polynomial"], e["root"]) for e in json.loads(rec["stdout"])]
    digests, failures = {}, []
    for seed in seed_range(args.seeds):
        for workload in gen.WORKLOADS:
            for i, call in enumerate(gen.calls_for(workload, seed)):
                rec = in_process(cli.main, call.argv)
                if rec["rc"] != 0:
                    last = (rec["stderr"].strip().splitlines() or [f"exit {rec['rc']}"])[-1]
                    failures.append({"workload": workload, "seed": seed, "call": i,
                                     "argv_key": check.argv_key(call.argv),
                                     "reason": ":".join(last.split(":")[:2])})
                    continue
                digests[check.argv_key(call.argv)] = check.digest(
                    check.exact_fields(call.kind, rec["stdout"]))
        print(f"seed {seed}: {len(digests)} digests, {len(failures)} failures", flush=True)
    with open(args.out, "w") as fh:
        json.dump({"seeds": args.seeds, "salem_deg8_upper2": salem, "digests": digests,
                   "failures": failures}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
