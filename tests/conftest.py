"""Session set-up: put the compiled propagation kernel under test.

``repro._native`` is an optional C extension, and without it every native
test would skip. When the kernel is not importable but a C compiler works,
it is built once per session into a temporary directory and registered as
``repro._native`` before any test module imports ``repro``, so the native
legs run the code that ships. Nothing is written under ``src/``. The pytest
header says whether the kernel was built, and why not when it was not.
"""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

#: builds the extension from argv[1] into the directory argv[2] and prints
#: the built file's path; run in a subprocess so compiler chatter stays out
#: of the test output.
_BUILD = """
import sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

source, out = sys.argv[1:]
cmd = build_ext(Distribution({"ext_modules": [Extension("repro._native", [source])]}))
cmd.build_lib = cmd.build_temp = out
cmd.ensure_finalized()
cmd.run()
print(cmd.get_ext_fullpath("repro._native"))
"""

_STATUS = pytest.StashKey[str]()
_BUILD_DIR = pytest.StashKey[str]()


def _provide_kernel(build_dir: str) -> str:
    """Make ``repro._native`` importable if possible; return the status."""
    if "repro" in sys.modules:
        return "not built: repro was imported before the test session began"
    package = importlib.util.find_spec("repro")
    if package is None:
        return "not built: the repro package is not on the path"
    kernel = importlib.machinery.PathFinder.find_spec(
        "repro._native", package.submodule_search_locations
    )
    if kernel is not None:
        return "prebuilt (%s)" % kernel.origin
    source = os.path.join(package.submodule_search_locations[0], "_native.c")
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD, source, build_dir],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        lines = (proc.stderr or proc.stdout).strip().splitlines()
        return "not built: %s" % (lines[-1] if lines else "exit %d" % proc.returncode)
    path = proc.stdout.strip().splitlines()[-1]
    spec = importlib.util.spec_from_file_location("repro._native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro._native"] = module
    return "built for this session (%s)" % path


def pytest_configure(config):
    config.stash[_BUILD_DIR] = tempfile.mkdtemp(prefix="repro-native-")
    config.stash[_STATUS] = _provide_kernel(config.stash[_BUILD_DIR])


def pytest_report_header(config):
    return "native kernel: %s" % config.stash[_STATUS]


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_BUILD_DIR], ignore_errors=True)
