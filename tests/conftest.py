import importlib.util
from pathlib import Path

import numpy as np
import pytest

from netobs import ConstraintMask, NetworkSystem

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line_matrix(diag, sup, sub):
    """Chain adjacency with self-loops; sensor is node 1 by convention."""
    n = len(diag)
    a = np.diag(np.asarray(diag, dtype=float))
    for i, w in enumerate(sup):
        a[i, i + 1] = w
    for i, w in enumerate(sub):
        a[i + 1, i] = w
    return a


def star_matrix(diag, spokes_out, spokes_in):
    """Hub at node 1, leaves 2..n. spokes_out feed the hub row."""
    n = len(diag)
    a = np.diag(np.asarray(diag, dtype=float))
    a[0, 1:] = spokes_out
    a[1:, 0] = spokes_in
    return a


def net_of(a, sensors=(0,), **kw):
    net = NetworkSystem(np.asarray(a, dtype=float), tuple(sensors), **kw)
    return net, ConstraintMask.same_as_graph(net)


@pytest.fixture
def line3():
    a = line_matrix([0.7, 0.4, 0.9], [0.5, 0.3], [0.6, 0.8])
    return net_of(a)


@pytest.fixture
def line4():
    a = line_matrix([0.2, 0.8, 0.5, 0.9], [0.7, 0.3, 0.6], [0.4, 0.9, 0.1])
    return net_of(a)


@pytest.fixture
def star4():
    a = star_matrix([0.5, 0.2, 0.8, 0.45], [0.6, 0.7, 0.9], [0.3, 0.4, 0.55])
    return net_of(a)
