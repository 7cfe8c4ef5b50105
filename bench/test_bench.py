"""Self-tests of the benchmark; run with `python -m pytest bench`."""
import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import run


def _refs(name):
    return json.loads((run.BENCH / "refs" / f"{name}.json").read_text())["seeds"]


def test_references_cover_every_seed():
    for name in run.WORKLOADS:
        assert sorted(map(int, _refs(name))) == list(range(run.REF_SEEDS))


def test_gate_accepts_rounding_shifts_and_rejects_another_seed():
    for name in run.WORKLOADS:
        seeds = _refs(name)
        ref = seeds["0"]
        shifted = copy.deepcopy(ref)
        for summary in shifted.values():
            for row in summary["rows"].values():
                row[:] = [v * (1 + 1e-12) if isinstance(v, float) else v for v in row]
            summary["sums"] = [s * (1 + 1e-12) if s is not None else None
                               for s in summary["sums"]]
        assert run.compare(shifted, ref) == []
        other = copy.deepcopy(seeds["1"])
        for csv, summary in other.items():   # only the values may tell them apart
            summary["meta"]["seed"] = ref[csv]["meta"]["seed"]
        assert run.compare(other, ref), f"{name}: seeds 0 and 1 agree"


def test_scaling_undoes_a_uniform_slowdown():
    for name, (_, threads) in run.WORKLOADS.items():
        ref = {"total": run.REFERENCE_S[threads]}
        at_reference = {"wall_s": 1.0, "setup_s": 0.3, "cal_before": ref, "cal_after": ref}
        slow = {"total": ref["total"] * 1.5}
        slowed = {"wall_s": 1.5, "setup_s": 0.45, "cal_before": slow, "cal_after": slow}
        for key in ("wall_s", "setup_s"):
            assert math.isclose(run.scaled(slowed, key, name),
                                run.scaled(at_reference, key, name))
            assert math.isclose(run.scaled(at_reference, key, name), at_reference[key])


def test_smoke_prints_every_declared_metric():
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
