import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_imports_and_is_callable():
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get(
        "scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target} is not callable"


def imported_by_loading_a_config(names) -> str:
    """Which of names a fresh interpreter holds after `import spikeforge.config`."""
    src = str(PYPROJECT.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, spikeforge.config; "
         f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_loading_a_config_does_not_import_scipy():
    # SciPy is only for neuron calibration; importing it costs most of a run's set-up
    assert imported_by_loading_a_config({"scipy"}) == "[]"


def test_loading_a_config_does_not_import_logging():
    # only a redrawn sparse column logs; logging, traceback and string cost a few ms
    assert imported_by_loading_a_config({"logging", "traceback", "string"}) == "[]"


class TestFileIO:
    """Only the parameter file's module (config.py, which reads the config,
    its side files and datasets) and the network file's (engine.py, which
    saves and loads conductances) touch files. The model modules do no file
    I/O, so each is used and tested on values alone."""

    OPENERS = {"config.py", "engine.py"}
    FILE_IO = re.compile(r"\bopen\(|\.(read|write)_(text|bytes)\(")

    def test_only_config_and_engine_open_files(self):
        package = PYPROJECT.parent / "src" / "spikeforge"
        opening = {path.name for path in package.glob("*.py")
                   if self.FILE_IO.search(path.read_text(encoding="utf-8"))}
        assert opening <= self.OPENERS, sorted(opening - self.OPENERS)
