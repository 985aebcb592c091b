import os
import subprocess
import sys

import pytest

import obfgame


@pytest.fixture
def run_python():
    """Run ``python *args`` in a fresh interpreter that imports the obfgame
    under test, whether it was imported from src/ or installed."""
    package_parent = os.path.dirname(os.path.dirname(obfgame.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))

    def run(*args, timeout):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=timeout)

    return run
