#!/usr/bin/env python3
"""Record the reference outputs in bench/refs/ from the program in this checkout.

    python3 bench/make_refs.py [WORKLOAD ...]

For every workload and each of the run.REF_SEEDS config seeds this runs the
CLI once and stores a summary of each CSV (header, row count, 51 evenly
spaced rows, column sums and `key=value` comment values).  The committed
references were recorded at the commit that introduced the benchmark; only
rerun this when an output change is intended and explained.
"""
import json
import sys

import yaml

import run


def main(names):
    for name in names or run.WORKLOADS:
        seeds = {}
        for seed in range(run.REF_SEEDS):
            cfg = run.make_config(name, seed)
            wdir = run.WORK / "refs" / name
            wdir.mkdir(parents=True, exist_ok=True)
            cfg_path = wdir / "config.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
            res = run.run_child(name, cfg_path, wdir / "out")
            if "error" in res:
                raise SystemExit(f"{name} seed {seed}: {res['error']}")
            seeds[str(seed)] = run.summarize(wdir / "out")
            print(f"{name} seed {seed}: {res['wall_s']:.3f} s", flush=True)
        doc = {"workload": name, "rtol": run.RTOL, "atol": run.ATOL,
               "commit": run.git_commit(), "seeds": seeds}
        (run.BENCH / "refs" / f"{name}.json").write_text(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
