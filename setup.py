"""Package metadata for ``repro`` (sources under ``src/``).

``pip install -e .`` installs the package in development mode through
the classic ``setup.py develop`` path, which needs neither ``wheel`` nor
a network connection.  The version is ``repro.__version__``, read from
``src/repro/__init__.py`` without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "networkx"],
)
