"""Setuptools entry point.

The execution environment is offline and lacks the ``wheel`` package, so the
PEP-660 editable path (which shells out to ``bdist_wheel``) is unavailable.
``pip install -e . --no-use-pep517`` (or ``python setup.py develop``) uses the
legacy editable install, which works with plain setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'Search to Fine-tune Pre-trained Graph Neural "
        "Networks for Graph-level Tasks' (S2PGNN, ICDE 2024) on a from-scratch "
        "numpy GNN stack"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # scipy serves only the no-compiler CSR fallback (imported on first
    # use); networkx is a test-only oracle (and `Graph.to_networkx`).
    install_requires=["numpy", "scipy"],
)
