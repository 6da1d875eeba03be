import numpy as np
import pytest

from bptn.bp import bp_iterate, uniform_messages
from bptn.loops import enumerate_loops, evaluate_weights
from bptn.models import (IsingParams, ising_network,
                         ising_paramagnetic_messages, random_peps)
from bptn.network import build_norm_network


class Ising44:
    """4x4 torus at beta=0.2 with the analytic fixed point and the
    weight-8 loop table, shared across tests (expensive to build)."""

    def __init__(self):
        self.params = IsingParams(L=4, beta=0.2)
        self.tn = ising_network(self.params)
        self.messages = ising_paramagnetic_messages(self.params, self.tn)
        self.loops = enumerate_loops(self.tn.graph, 8)
        self.table = evaluate_weights(self.tn, self.messages, self.loops)


@pytest.fixture(scope="session")
def ising44():
    return Ising44()


class Peps23:
    """2x3 random PEPS norm network with converged BP messages."""

    def __init__(self, perturbation=0.35, seed=7):
        self.peps = random_peps(2, 3, D=2, perturbation=perturbation,
                                seed=seed)
        self.tn = build_norm_network(self.peps)
        res = bp_iterate(self.tn, uniform_messages(self.tn), tol=1e-13)
        assert res.converged
        self.messages = res.messages


@pytest.fixture(scope="session")
def peps23():
    return Peps23()
