"""One stochlab CLI run in a fresh process, timed from the outside in.

    python3 child.py ROOT T_SPAWN MODE SPANS_PATH -- <stochlab CLI arguments>

ROOT is the checkout whose src/ must provide stochlab.  T_SPAWN is the
CLOCK_MONOTONIC reading the parent took just before starting this process.
MODE is `plain` (timings only), `trace` (spans around the public functions,
written to SPANS_PATH) or `memory` (tracemalloc peak of the analyze entry
points).
The last stdout line is a JSON object with the CLI exit code, setup_s (spawn
to config resolved, less the calibration before it), wall_s (config resolved
to the CLI's return, i.e. the last CSV closed), the calibration kernel's
times just before and just after the CLI run (bench/calibrate.py, run in as
many threads as the CLI's --threads) and the peak RSS of this process.
"""
import json
import os
import resource
import sys
import time

import calibrate


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    root, t_spawn, mode, spans_path = sys.argv[1:5]
    cli_args = sys.argv[6:]
    src = os.path.join(os.path.abspath(root), "src")
    import stochlab
    from stochlab import cli

    if not os.path.abspath(stochlab.__file__).startswith(src + os.sep):
        print(f"stochlab imported from {stochlab.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer, memory = None, {}
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "memory":
        from tracer import install_memory_probe

        install_memory_probe(memory)

    threads = int(cli_args[cli_args.index("--threads") + 1]) if "--threads" in cli_args else 1
    t_cal = _now()
    cal_before = calibrate.measure(threads)
    t_cal = _now() - t_cal

    stamps = {}
    load_config = cli.load_config

    def stamped_load_config(*args, **kwargs):
        out = load_config(*args, **kwargs)
        stamps["config"] = _now()
        return out

    cli.load_config = stamped_load_config
    rc = cli.main(cli_args)
    t_done = _now()
    cal_after = calibrate.measure(threads)
    result = {
        "rc": rc,
        "setup_s": stamps.get("config", t_done) - float(t_spawn) - t_cal,
        "wall_s": t_done - stamps.get("config", t_done),
        "cal_before": cal_before,
        "cal_after": cal_after,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        tracer.write_spans(spans_path, run_id=os.getpid())
    if mode == "memory":
        result["analyze_peak_mb"] = memory.get("analyze_peak_mb", 0.0)
    print(json.dumps(result))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
