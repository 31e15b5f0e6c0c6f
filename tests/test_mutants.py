"""scripts/mutants.py: its entries still match the source, and one runs end to end."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_edits_its_file_at_one_place():
    mutants = _mutants()
    for path, old, new, _, killer in mutants.MUTANTS:
        text = (ROOT / path).read_text()
        assert mutants.mutate(text, old, new) != text
        assert (ROOT / killer.split("::")[0]).is_file(), killer


def test_a_stale_entry_fails_loudly():
    with pytest.raises(LookupError):
        _mutants().mutate("a[n] += p * a[n - e]", "a[n] += a[n - e]", "")


def test_the_one_step_division_mutant_is_killed():
    # the entry at 2e = T' with the kernel's reference test, in a temporary copy
    cmd = [sys.executable, str(SCRIPT), "--only", "1",
           "--select", "tests/test_series.py::test_apply_ratio_matches_reference"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " killed " in proc.stdout
