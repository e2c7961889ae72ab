"""Smoke test: the workload calibration tool still runs.

``tools/calibrate_workloads.py`` is how the IBS clones are retuned after
a generator change: it prints each clone's Table 1/Table 2 quantities
next to the paper's targets.  It is a development tool with no other
test, so this runs its ``main()`` on one benchmark and checks that every
measured/target column is printed.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

_TOOL_PATH = (
    Path(__file__).resolve().parents[2] / "tools" / "calibrate_workloads.py"
)


def _load():
    spec = importlib.util.spec_from_file_location(
        "calibrate_workloads", _TOOL_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_prints_paper_target_columns(capsys, monkeypatch):
    tool = _load()
    monkeypatch.setattr(sys, "argv", ["calibrate_workloads.py", "verilog"])
    tool.main()
    out = capsys.readouterr().out
    dyn, static, r4, r12, u4_1, u4_2, u12_1, u12_2 = tool.PAPER["verilog"]
    number = r"\s*[\d.]+"
    expected = [
        rf"^verilog\s+dyn={number}/\s*{dyn}\b",
        rf"static={number}/\s*{static}\b",
        rf"r4={number}/{r4:.2f}\b",
        rf"r12={number}/\s*{r12:.2f}\b",
        rf"u4:{number}/\s*{u4_1:.2f} \(1b\){number}/\s*{u4_2:.2f} \(2b\)",
        rf"u12:{number}/\s*{u12_1:.2f} \(1b\){number}/\s*{u12_2:.2f} \(2b\)",
        r"comp12=[\d.]+%",
    ]
    for pattern in expected:
        assert re.search(pattern, out, re.MULTILINE), (pattern, out)
