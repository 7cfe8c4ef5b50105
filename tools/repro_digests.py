"""Print the sha256 of every CSV the CLI reproducibility runs write.

Runs each entry of `_REPRO_RUNS` (tests/test_acceptance.py) through
`stochlab.cli.main` in a temporary directory and prints one
`sha256  task/run/file.csv` line per output file, in run order.
`tests/repro_digests.txt` holds this output; the tier-1 test that compares
it, line for line, with the CSVs of the tree is one command:

    python -m pytest tests/test_acceptance.py -k committed_digests

A change that moves a CSV on purpose rewrites the committed file with

    python tools/repro_digests.py > tests/repro_digests.txt

The source tree next to this script is the one imported.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from stochlab.cli import main  # noqa: E402


def digests(runs):
    """Yield (sha256 hex, 'task/run/file.csv') for each (task, config) in runs."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, (task, cfg) in enumerate(runs):
            cfg_path = Path(tmp) / f"cfg{i}.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            out = Path(tmp) / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main([task, "--config", str(cfg_path), "--out", str(out)])
            if rc == 2:  # a failed check (1) still writes its CSVs
                raise SystemExit(f"{task} run {i}: invalid configuration")
            for csv in sorted(out.glob("*.csv")):
                yield hashlib.sha256(csv.read_bytes()).hexdigest(), f"{task}/{i}/{csv.name}"


if __name__ == "__main__":
    from test_acceptance import _REPRO_RUNS

    for digest, name in digests(_REPRO_RUNS):
        print(f"{digest}  {name}")
