"""The compiled BP sweep against the per-edge path it replaced.

``tests/oracles.py`` keeps the per-edge sweep, iteration and stability
probe as they were: one ``contract_pair`` per incoming message and one
``normalize`` per directed edge.  The compiled path must agree with it bit
for bit, because the golden ``bp`` body pins ``residual`` (a difference
near ``tol``) and ``growth_ratio`` (a finite difference at step 1e-7) at
1e-12 relative, and one ulp in one message moves either far past that.
"""

import numpy as np
import pytest

import oracles
import bptn.bp
from bptn.bp import (PROBE_PERTURBATIONS, PROBE_SWEEPS, _normalize_rows,
                     bp_iterate, merge_messages, random_messages,
                     self_consistency_residual, stability_probe,
                     uniform_messages)
from bptn.cli import generate
from bptn.models import IsingParams, ising_network
from bptn.network import merge_region


def _merged():
    """A merged region whose fused edge has bond dimension 4 among
    dimension-2 edges, with the messages carried across the merge."""
    tn = ising_network(IsingParams(L=4, beta=0.25, h=0.1))
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-12).messages
    region = ["0,0", "0,1", "1,1"]
    merged, fused, new_id = merge_region(tn, region)
    assert sorted(set(merged.bond_dims.values())) == [2, 4]
    return merged, merge_messages(merged, fused, ms, region, new_id)


def _start(tn):
    return tn, uniform_messages(tn)


def _random_start():
    tn = generate("ising:L=3,beta=0.3,h=0.1", 0).tn
    return tn, random_messages(tn, seed=5)


CASES = {
    # the bp_stability benchmark network
    "bp_stability": lambda: _start(
        generate("ising:L=3,beta=0.34,h=0.05", 0).tn),
    "cylinder_field": lambda: _start(ising_network(
        IsingParams(L=4, beta=0.3, h=0.1, topology="cylinder"))),
    # bond dimension 4, three tensor shapes
    "peps_5x5": lambda: _start(
        generate("peps:rows=5,cols=5,D=2,perturbation=0.25", 11).tn),
    # several shape groups; a leaf's update contracts no message
    "tree": lambda: _start(generate("tree:n=12,D=3", 0).tn),
    "merged_mixed_dims": _merged,
    # one vertex, no message to update or perturb
    "edgeless": lambda: _start(generate("tree:n=1", 0).tn),
    "random_complex_start": _random_start,
}


def _assert_same_messages(a, b):
    assert list(a.messages) == list(b.messages)
    for key in a.messages:
        assert a.messages[key].legs == b.messages[key].legs
        assert np.array_equal(a.messages[key].data, b.messages[key].data), key


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_bp_matches_per_edge_path(case):
    tn, start = CASES[case]()
    want = oracles.bp_iterate(tn, start)
    got = bp_iterate(tn, start)
    _assert_same_messages(want.messages, got.messages)
    assert (got.residual, got.iterations, got.converged) == (
        want.residual, want.iterations, want.converged)
    assert got.converged
    # bit for bit, and nan where the probe has nothing to perturb
    np.testing.assert_equal(stability_probe(tn, got.messages, seed=3),
                            oracles.stability_probe(tn, want.messages, seed=3))
    upd = oracles.sweep(tn, start)
    defect = max([0.0] + [float(np.linalg.norm(
        upd[k].data - oracles.normalize(start.messages[k].data)))
        for k in upd])
    assert self_consistency_residual(tn, start) == defect


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
def test_normalize_rows_matches_per_message_normalize(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4000, d)) + 1j * rng.standard_normal((4000, d))
    x[::7] = x[::7].real                # real rows
    x[::11, 0] = x[::11, -1]            # magnitude ties
    x[::13] *= 1e-9                     # small but above the floor
    want = np.stack([oracles.normalize(row) for row in x])
    assert np.array_equal(_normalize_rows(x), want)


def test_sweep_calls_are_counted_per_sweep(monkeypatch):
    """``perfbench/tracing.py`` counts calls of ``bptn.bp._sweep``: one per
    iteration sweep and PROBE_PERTURBATIONS * PROBE_SWEEPS per probe."""
    calls = []
    sweep = bptn.bp._sweep

    def counting(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(bptn.bp, "_sweep", counting)
    tn = generate("ising:L=3,beta=0.34,h=0.05", 0).tn
    res = bp_iterate(tn, uniform_messages(tn))
    assert len(calls) == res.iterations == 215
    calls.clear()
    stability_probe(tn, res.messages)
    assert len(calls) == PROBE_PERTURBATIONS * PROBE_SWEEPS
