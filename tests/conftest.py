import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the subprocess tests run `python -m barypoly`: let them import this
# checkout's package, as pytest's pythonpath setting does in process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from barypoly.fixtures import get_fixture


@pytest.fixture(scope="session")
def square():
    return get_fixture("square")


@pytest.fixture(scope="session")
def pentagon():
    return get_fixture("pentagon")


@pytest.fixture(scope="session")
def pyramid():
    return get_fixture("pyramid")


@pytest.fixture(scope="session")
def prism8():
    return get_fixture("prism8")
