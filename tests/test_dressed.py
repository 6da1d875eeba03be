"""Dressed-tensor weights and regions against the piece lists they replace.

The reference builds the full piece list of a support -- its site tensors,
mu/sqrt(I) on every boundary leg, and (for loops) the edge projectors --
and contracts it with one np.einsum call, independent of contract_network
and of the dressed-tensor cache.
"""

import numpy as np
import pytest

from bptn.bp import (bp_iterate, edge_projector, local_factors,
                     uniform_messages)
from bptn.cumulants import find_regions, region_partition
from bptn.loops import enumerate_loops, excitation_weight
from bptn.models import (IsingParams, ising_insertion, ising_network,
                         random_peps)
from bptn.network import build_norm_network, peps_replacements
from bptn.observables import InsertionProblem
from oracles import degree_map

_SZ = np.diag([1.0, -1.0])
REL = 1e-12


def _einsum(pieces) -> complex:
    labels = {}
    args = []
    for p in pieces:
        args += [p.data.reshape([l.dim for l in p.legs]),
                 [labels.setdefault(i, len(labels)) for i in p.leg_ids]]
    assert len(labels) <= 52, "einsum's sublist form takes 52 labels"
    return complex(np.einsum(*args, [], optimize="greedy"))


def _reference_weight(tn, messages, loop, factors) -> complex:
    """Site tensors with legs split per endpoint, mu/sqrt(I) on the
    boundary, a projector on every loop edge."""
    g = tn.graph
    pieces = []
    for v in sorted(loop.vertices):
        pieces.append(tn.tensors[v].relabel(
            {e: f"{e}@{v}" for (e, _) in g.incident(v)}))
        for (e, n) in g.incident(v):
            if e not in loop.edges:
                pieces.append(messages.message(n, v).relabel(
                    {e: f"{e}@{v}"}).scale(1.0 / messages.sqrt_inner(e)))
    pieces += [edge_projector(messages, e) for e in loop.edges]
    denom = np.prod([factors[v] for v in loop.vertices])
    return _einsum(pieces) / denom


def _reference_region(tn, messages, R, replacements) -> complex:
    """Site tensors (or replacements) with mu/sqrt(I) on the boundary."""
    pieces = []
    for v in sorted(R.vertices):
        pieces.append(replacements.get(v, tn.tensors[v]))
        for (e, n) in tn.graph.incident(v):
            if n not in R.vertices:
                pieces.append(messages.message(n, v).scale(
                    1.0 / messages.sqrt_inner(e)))
    return _einsum(pieces)


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


@pytest.fixture(scope="module")
def ising_field():
    p = IsingParams(L=4, beta=0.3, h=0.2)
    tn = ising_network(p)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    return p, tn, res.messages


@pytest.fixture(scope="module")
def peps33():
    peps = random_peps(3, 3, D=2, perturbation=0.3, seed=5)
    tn = build_norm_network(peps)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    return peps, tn, res.messages


def test_weights_match_reference_ising_field(ising_field):
    _, tn, ms = ising_field
    loops = enumerate_loops(tn.graph, 6)
    assert len(loops) == 152
    for loop in loops:
        got = excitation_weight(tn, ms, loop)
        want = _reference_weight(
            tn, ms, loop, local_factors(tn, ms, loop.vertices))
        assert want != 0 and _close(got, want), loop


def test_weights_match_reference_peps_norm(peps33):
    _, tn, ms = peps33
    loops = enumerate_loops(tn.graph, 12)  # every loop of the 3x3 grid
    assert len(loops) == 42
    for loop in loops:
        got = excitation_weight(tn, ms, loop)
        want = _reference_weight(
            tn, ms, loop, local_factors(tn, ms, loop.vertices))
        assert want != 0 and _close(got, want), loop


def test_bar_weights_on_decorated_networks_match_reference(peps33):
    """Decorated networks share the messages but swap one site tensor;
    the dressed cache must keep their entries apart.  Undecorated and
    decorated weights are asked for in alternation."""
    peps, tn, ms = peps33
    repl = peps_replacements(peps, {"0,1": _SZ})
    prob = InsertionProblem(tn, ms, [repl])
    (rid,) = prob.region_ids
    strings = prob.strings(6)
    decorated = [l for l in strings if rid in l.vertices]
    assert decorated and len(decorated) < len(strings)
    open_strings = {l for l in strings
             if min(degree_map(prob.base.graph, l.edges).values()) < 2}
    assert open_strings
    for loop in strings:
        fac = local_factors(prob.base, prob.messages, loop.vertices)
        for inserted in ({frozenset()} | ({frozenset([rid])}
                                           if loop in decorated else set())):
            got = prob.bar_weight(loop, inserted)
            want = _reference_weight(prob.network(inserted), prob.messages,
                                     loop, fac)
            if loop in open_strings and not inserted:
                # a leaf without its insertion vanishes at the fixed point
                assert abs(got) < 1e-12 and abs(want) < 1e-12
            else:
                assert want != 0 and _close(got, want), (loop, inserted)


def test_region_partition_matches_reference(ising_field):
    _, tn, ms = ising_field
    poset = find_regions(tn.graph, 6)
    assert poset
    for R in poset:
        raw, xi = region_partition(tn, ms, R)
        want = _reference_region(tn, ms, R, {})
        denom = np.prod(list(local_factors(tn, ms, R.vertices).values()))
        assert _close(raw, want) and _close(xi, want / denom), R


def test_region_partition_with_replacements_matches_reference(ising_field):
    p, tn, ms = ising_field
    site = "1,1"
    repl = ising_insertion(tn, p, {site: _SZ})
    poset = find_regions(tn.graph, 5, site)
    assert len(poset) > 1
    for R in poset:
        for replacements in ({}, repl):
            raw, _ = region_partition(tn, ms, R, replacements=replacements)
            want = _reference_region(tn, ms, R, replacements)
            assert _close(raw, want), (R, replacements)
