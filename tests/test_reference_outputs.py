"""The committed reference outputs as a check: each config under
perfbench/reference, run in process through run_cli, writes the committed
result.csv beside it, the header exactly and every cell within
REFERENCE_ATOL. The comparison is the benchmark's own (perfbench/checks.py),
read in place."""

import contextlib
import glob
import importlib.util
import io
import os

import pytest

from nvholo.cli import run_cli
from nvholo.config import parse_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
_spec = importlib.util.spec_from_file_location("perfbench_checks", os.path.join(PERFBENCH, "checks.py"))
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

CONFIGS = sorted(glob.glob(os.path.join(PERFBENCH, "reference", "*", "*.ini")))
assert CONFIGS, "no reference configs found under perfbench/reference"


@pytest.mark.parametrize("ini", CONFIGS, ids=lambda path: os.path.relpath(path[:-4], os.path.join(PERFBENCH, "reference")))
def test_reference_config_reproduces_its_csv(ini, tmp_path):
    with open(ini, encoding="utf-8") as handle:
        scenario = parse_config(handle.read()).scenario_id
    with open(ini[:-4] + ".csv", encoding="utf-8") as handle:
        reference = handle.read()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli([scenario, "--config", ini, "--out", str(tmp_path)])
    assert code == 0
    header, rows = checks.parse_csv((tmp_path / checks.RESULT_NAME).read_text(encoding="utf-8"))
    problems, _ = checks.reference_problems(header, rows, reference)
    assert problems == []
