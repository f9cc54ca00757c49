"""Every perisym module imports on its own in a fresh interpreter, so no
import cycle depends on which module a program names first; and every
source and test file parses as Python 3.10, the oldest version the
package supports."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import perisym

MODULES = ["perisym"] + sorted(
    f"perisym.{info.name}" for info in pkgutil.iter_modules(perisym.__path__))


def test_every_module_is_listed():
    assert {"perisym.dsmap", "perisym.thinkac", "perisym.lift"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=str(Path(perisym.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


SOURCES = sorted(Path(perisym.__file__).parent.glob("**/*.py")) + sorted(
    Path(__file__).resolve().parent.glob("**/*.py"))


def test_sources_are_listed():
    names = {path.name for path in SOURCES}
    assert {"thinkac.py", "test_imports.py", "test_certificate_element.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
