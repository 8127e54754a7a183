#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py [--seeds 32]

Runs one repetition of every workload per seed (``crb`` once: it draws no
random numbers) and rewrites ``perfbench/digests.json``. Re-record only when
a change is meant to alter simulation output, and say why in CHANGES.md.
"""

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32, help="record seeds 0..N-1")
    args = parser.parse_args(argv)

    run._load_package()
    import workloads

    out_dir = run.OUT_DIR / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        seeds = range(args.seeds) if cls.seeded else [0]
        table[name] = {}
        for seed in seeds:
            rep = run.run_rep(cls(seed), out_dir)
            if rep["problems"]:
                print("\n".join(rep["problems"]), file=sys.stderr)
                return 1
            table[name][str(seed) if cls.seeded else "*"] = rep["digest"]
            print(name, seed, rep["digest"])
    (run.BENCH_DIR / "digests.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
