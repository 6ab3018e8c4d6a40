import pytest

from treelts import Component, infer_topology
from treelts.cli import load
from treelts.fixtures import gx_path, gy_path


@pytest.fixture(scope="session")
def gx():
    return load(gx_path())


@pytest.fixture(scope="session")
def gy():
    return load(gy_path())


@pytest.fixture(scope="session")
def chain_net():
    """Three-level chain A - B - C, two states per component."""
    a = Component(
        name="A", states=("a0", "a1"), initial="a0",
        transitions=(("a0", "x", "a1"), ("a1", "x", "a0"), ("a1", "la", "a1")),
        labels={"a1": frozenset({"pa"})},
    )
    b = Component(
        name="B", states=("b0", "b1"), initial="b0",
        transitions=(("b0", "x", "b0"), ("b1", "x", "b0"), ("b0", "y", "b1")),
        labels={"b1": frozenset({"pb"})},
    )
    c = Component(
        name="C", states=("c0", "c1"), initial="c0",
        transitions=(("c0", "tau", "c1"), ("c1", "y", "c0")),
        labels={"c1": frozenset({"pc"})},
    )
    return infer_topology([a, b, c], "A")
