"""The package's export list, README's coder table, and the experiment
scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kadjust
from kadjust.coders import CoderId, is_concrete

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_exports_resolve_without_duplicates():
    assert len(kadjust.__all__) == len(set(kadjust.__all__))
    missing = [name for name in kadjust.__all__ if not hasattr(kadjust, name)]
    assert missing == []


def test_readme_coder_table():
    # Rows of the table under "## Coders": | `name` | description | concrete code |
    section = (ROOT / "README.md").read_text().split("## Coders", 1)[1]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    table = {name.strip().strip("`"): concrete.strip() for name, _, concrete in rows}
    assert tuple(table) == kadjust.CODER_NAMES
    for name, concrete in table.items():
        assert concrete in ("yes", "ideal only"), name
        assert (concrete == "yes") == is_concrete(CoderId(name)), name


@pytest.mark.parametrize(
    "script, args",
    [
        ("worked_example.py", []),
        ("convergence_experiment.py", ["--length", "512"]),
        ("calibration_experiment.py", ["--length", "64", "--trials", "200"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    # The experiments write their tables under ./results, here in tmp_path.
    env = dict(os.environ, PYTHONPATH=str(Path(kadjust.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
