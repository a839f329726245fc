"""What the package's modules load and export.

jsonschema and its dependencies cost about 0.1 s of start-up, so only
``errors.load_document`` imports it, on its first call.  Each of those
checks runs a new interpreter, because this test session has long since
imported it.  Every name a module lists in ``__all__`` must exist, so a
stale export fails here rather than at ``from fourierqml.x import *``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fourierqml

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
import fourierqml
for module in pkgutil.iter_modules(fourierqml.__path__):
    importlib.import_module("fourierqml." + module.name)
"""


def loaded_after(code: str) -> bool:
    """Whether ``jsonschema`` is in ``sys.modules`` after running ``code``."""
    probe = code + "\nprint('jsonschema' in sys.modules, file=sys.stderr)\n"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return {"True": True, "False": False}[result.stderr.strip().splitlines()[-1]]


def test_importing_every_module_leaves_jsonschema_unloaded():
    assert loaded_after(IMPORT_ALL) is False


def test_spectrum_and_help_leave_jsonschema_unloaded():
    code = IMPORT_ALL + """
import contextlib, io
from fourierqml import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["spectrum", "--exp", "4"]) == 0
    try:
        cli.main(["train", "--help"])
    except SystemExit as exc:
        assert exc.code == 0
"""
    assert loaded_after(code) is False


def test_loading_a_config_loads_jsonschema(tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "version": "train-v1", "seed": 0, "output_dir": str(tmp_path / "out"),
        "family": "classical", "target": {"kind": "step"},
    }), encoding="utf-8")
    code = IMPORT_ALL + f"""
from fourierqml import cli
assert cli._load_config({str(config)!r}, cli._TRAIN_SCHEMA)["family"] == "classical"
"""
    assert loaded_after(code) is True


@pytest.mark.parametrize("name", ["fourierqml"] + [
    "fourierqml." + module.name for module in pkgutil.iter_modules(fourierqml.__path__)])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
