"""Legacy setuptools shim (offline environments lack the wheel package)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="5.0.0",
    description=(
        "Reproduction of 'Application Classification through Monitoring and "
        "Learning of Resource Consumption Patterns' (Zhang & Figueiredo, IPDPS 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    entry_points={"console_scripts": ["repro-qa = repro.qa.cli:main"]},
)
