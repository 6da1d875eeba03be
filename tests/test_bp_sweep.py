"""The compiled BP sweep against the per-edge path it replaced.

``tests/oracles.py`` keeps the per-edge sweep, iteration and stability
probe as they were: one ``contract_pair`` per incoming message, one
``normalize`` per directed edge, and the probe's chains one after the
other.  The compiled path, which advances the chains together, must agree
with it bit for bit, because the golden ``bp`` body pins ``residual`` (a
difference near ``tol``) and ``growth_ratio`` (a finite difference at step
1e-7) at 1e-12 relative, and one ulp in one message moves either far past
that.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
import bptn.bp
from bptn.bp import (PROBE_PERTURBATIONS, PROBE_SWEEPS, _normalize_rows,
                     _Plan, _sweep, bp_iterate, random_messages,
                     stability_probe, uniform_messages)
from bptn.cli import generate
from bptn.models import IsingParams, ising_network
from bptn.network import Graph, TensorNetwork
from bptn.tensor import DenseTensor

ROOT = Path(__file__).resolve().parents[1]


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
    # bond dimensions 2, 3 and 4 on one loopy graph
    "mixed_dims": lambda: _start(_mixed_dims()),
    # one vertex, no message to update or perturb
    "edgeless": lambda: _start(generate("tree:n=1", 0).tn),
    "random_complex_start": _random_start,
}


def _assert_same_messages(a, b):
    a, b = oracles.per_edge(a), oracles.per_edge(b)
    assert list(a) == list(b)
    for key in a:
        assert a[key].leg_ids == b[key].leg_ids
        assert np.array_equal(a[key].data, b[key].data), key


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
    np.testing.assert_equal(stability_probe(got.messages, seed=3),
                            oracles.stability_probe(want.messages, seed=3))
    upd = oracles.sweep(tn, oracles.per_edge(start))
    defect = max([0.0] + [float(np.linalg.norm(
        upd[k].data - oracles.normalize(oracles.message(start, *k).data)))
        for k in upd])
    assert oracles.self_consistency_residual(start) == defect


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
def test_normalize_rows_matches_per_message_normalize(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4000, d)) + 1j * rng.standard_normal((4000, d))
    x[::7] = x[::7].real                # real rows
    x[::11, 0] = x[::11, -1]            # magnitude ties
    x[::13] *= 1e-9                     # small but above the floor
    want = np.stack([oracles.normalize(row) for row in x])
    assert np.array_equal(_normalize_rows(x), want)


@pytest.mark.parametrize("chains", [(), (3,)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_normalize_rows_of_concatenated_stacks(d, chains):
    """Callers normalize a sweep's updates together with other rows in
    one call; each part comes out as it would alone, for (rows, d) and
    (C, rows, d) stacks."""
    rng = np.random.default_rng(10 + d)
    parts = [rng.standard_normal((*chains, n, d))
             + 1j * rng.standard_normal((*chains, n, d)) for n in (36, 7, 1)]
    parts[1][..., ::2, :] *= 1e-9
    parts[2] = parts[2].real + 0j
    both = _normalize_rows(np.concatenate(parts, axis=-2))
    at = np.cumsum([0] + [p.shape[-2] for p in parts])
    for part, lo, hi in zip(parts, at, at[1:]):
        assert np.array_equal(both[..., lo:hi, :], _normalize_rows(part))


def test_sweep_calls_are_counted_per_sweep(monkeypatch):
    """``perfbench/tracing.py`` counts calls of ``bptn.bp._sweep``: one per
    iteration sweep, and PROBE_SWEEPS per probe, each advancing all
    PROBE_PERTURBATIONS chains on its leading axis."""
    calls = []
    sweep = bptn.bp._sweep

    def counting(compiled, msgs):
        calls.append({m.shape[:-2] for m in msgs.values()})
        return sweep(compiled, msgs)

    monkeypatch.setattr(bptn.bp, "_sweep", counting)
    tn = generate("ising:L=3,beta=0.34,h=0.05", 0).tn
    res = bp_iterate(tn, uniform_messages(tn))
    assert len(calls) == res.iterations == 215
    assert calls == [{()}] * 215
    calls.clear()
    stability_probe(res.messages)
    assert calls == [{(PROBE_PERTURBATIONS,)}] * PROBE_SWEEPS


def _square_with_diagonal(dims):
    """A square with one diagonal, bonds of dimensions ``dims`` (by edge
    id), positive random tensors."""
    rng = np.random.default_rng(1)
    edges = {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"),
             "da": ("d", "a"), "ac": ("a", "c")}
    g = Graph("abcd", edges)
    tensors = {}
    for v in g.vertices:
        legs = [e for e, _ in g.incident(v)]
        tensors[v] = DenseTensor(
            legs, 0.5 + rng.random(tuple(dims[e] for e in legs)))
    return TensorNetwork(g, tensors)


def _two_dims():
    return _square_with_diagonal(
        {"ab": 2, "bc": 3, "cd": 2, "da": 3, "ac": 3})


def _mixed_dims():
    tn = _square_with_diagonal({"ab": 2, "bc": 3, "cd": 4, "da": 2, "ac": 3})
    assert len(set(tn.bond_dims.values())) >= 3
    return tn


CHAIN_CASES = {
    "bp_stability": lambda: generate("ising:L=3,beta=0.34,h=0.05", 0).tn,
    # bond dimension 4, several tensor-shape groups
    "peps_3x3": lambda: generate("peps:rows=3,cols=3,D=2", 0).tn,
    "two_dims": _two_dims,
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_chain_stacked_sweep_matches_separate_sweeps(case):
    """One sweep over C stacked message sets, compiled for that stack, is
    C sweeps compiled for one message set, bit for bit, raw and
    normalized."""
    tn = CHAIN_CASES[case]()
    plan = _Plan(tn)
    chains = [random_messages(tn, seed=s).data for s in range(3)]
    stacked = _sweep(plan.compile((3,)), {d: np.stack([c[d] for c in chains])
                                          for d in plan.dims})
    assert len(plan.dims) == (2 if case == "two_dims" else 1)
    compiled = plan.compile()
    for c, msgs in enumerate(chains):
        alone = _sweep(compiled, msgs)
        for d in plan.dims:
            assert np.array_equal(stacked[d][c], alone[d]), (c, d)
            assert np.array_equal(_normalize_rows(stacked[d])[c],
                                  _normalize_rows(alone[d])), (c, d)


def _first_matrices(tn, plan):
    """The first matrix of each group with a step, built from the group's
    site tensors: the stack moved so the first contracted leg is last,
    reshaped to (1, B, rest, leg dim).  Groups in the order of their first
    update in ``plan.keys``."""
    groups = {}
    for (v, w), e in plan.keys:
        t = tn.tensors[v]
        ids, positions = list(t.leg_ids), []
        for e2, _ in tn.graph.incident(v):
            if e2 != e:
                positions.append(ids.index(e2))
                ids.remove(e2)
        groups.setdefault((t.data.shape, tuple(positions)), []).append(
            t.data)
    for (shape, positions), ts in groups.items():
        if positions:
            stack, k = np.stack(ts)[None], positions[0]
            yield np.moveaxis(stack, k + 2, -1).reshape(
                -1, len(ts), stack[0, 0].size // shape[k], shape[k])


@pytest.mark.parametrize("case", sorted(CASES) + [
    f"chain:{c}" for c in sorted(CHAIN_CASES)])
def test_first_matrix_keeps_the_layout_of_the_sweep_expression(case):
    """A matmul rounds by the memory layout of its operands, so the first
    matrix that ``compile`` builds must be the view or the copy that
    ``moveaxis(...).reshape(mat)`` gives, values and strides alike, and no
    sweep refills it.  Compiled for three chains, the first matrices are
    the steps' matrices with a chain axis of length 1."""
    tn = (CHAIN_CASES[case[6:]]() if case.startswith("chain:")
          else CASES[case]()[0])
    plan = _Plan(tn)
    firsts = [(copy, mat) for copy, mat, _, _ in plan.compile((3,))[1]
              if mat.shape[0] == 1]
    found = list(_first_matrices(tn, plan))
    assert len(firsts) == len(found)
    for (copy, got), want in zip(firsts, found):
        assert copy is None
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_batched_probe_matches_per_chain_oracle(case):
    tn = CHAIN_CASES[case]()
    res = bp_iterate(tn, uniform_messages(tn))
    assert res.converged
    for seed in (0, 3, 7):
        np.testing.assert_equal(
            stability_probe(res.messages, seed=seed),
            oracles.stability_probe(res.messages, seed=seed))


@pytest.mark.parametrize("chains", [1, 2, 3])
def test_probe_median_over_odd_and_even_chain_counts(monkeypatch, chains):
    """The plain-Python median is ``np.median``'s, on one middle value and
    on the mean of two."""
    monkeypatch.setattr(bptn.bp, "PROBE_PERTURBATIONS", chains)
    monkeypatch.setattr(oracles, "PROBE_PERTURBATIONS", chains)
    tn = generate("ising:L=3,beta=0.34,h=0.05", 0).tn
    res = bp_iterate(tn, uniform_messages(tn))
    got = stability_probe(res.messages, seed=3)
    assert got[0] == "stable"
    np.testing.assert_equal(got,
                            oracles.stability_probe(res.messages, seed=3))


def test_probe_drops_a_chain_whose_norm_is_zero(monkeypatch):
    """A chain that starts at zero stops at once; the other chain runs on
    alone and gives the growth factor, as the per-chain oracle does."""
    make = np.random.default_rng

    class ZeroFirstChain:
        """A generator whose first ``zeros`` draws are zero vectors."""

        def __init__(self, seed, zeros):
            self.rng, self.zeros = make(seed), zeros

        def standard_normal(self, size):
            if self.zeros:
                self.zeros -= 1
                return np.zeros(size)
            return self.rng.standard_normal(size)

    tn = generate("ising:L=3,beta=0.34,h=0.05", 0).tn
    res = bp_iterate(tn, uniform_messages(tn))
    # chain 0 draws a real and an imaginary part per directed edge
    zeros = 2 * 2 * len(tn.graph.edges)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: ZeroFirstChain(seed, zeros))
    got = stability_probe(res.messages, seed=3)
    assert got[0] == "stable"
    np.testing.assert_equal(got,
                            oracles.stability_probe(res.messages, seed=3))


def test_probe_collapses_on_rank_one_tensors():
    """Outer-product site tensors: every update is a fixed vector times a
    scalar, so the sweep's normalized output does not depend on its input,
    each chain's perturbation is exactly zero after one step, and no chain
    reaches the 20 steps a growth factor needs."""
    rng = np.random.default_rng(0)
    g = ising_network(IsingParams(L=3, beta=0.3)).graph
    e0 = np.array([1.0, 0.0])
    tensors = {}
    for v in g.vertices:
        legs = [e for e, _ in g.incident(v)]
        data = (0.5 + rng.random()) * e0
        for _ in legs[1:]:
            data = np.multiply.outer(data, e0)
        tensors[v] = DenseTensor(legs, data)
    tn = TensorNetwork(g, tensors)
    # undamped, the fixed point is e0 on every edge, exactly
    res = bp_iterate(tn, uniform_messages(tn), damping=0.0)
    assert res.converged and res.residual == 0.0
    want = ("inconclusive", float("nan"))
    np.testing.assert_equal(oracles.stability_probe(res.messages), want)
    np.testing.assert_equal(stability_probe(res.messages), want)


def test_bp_run_does_not_import_numpy_ma():
    """``np.median`` imports ``numpy.ma`` (about 11 ms and 1.4 MB in a fresh
    process); the probe's median is plain Python."""
    code = ("import contextlib, io, sys\n"
            "from bptn.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['bp', '--generate', "
            "'ising:L=3,beta=0.34,h=0.05']) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("case", ["bp_stability", "mixed_dims", "peps_5x5",
                                  "edgeless"])
def test_start_messages_match_per_edge_draws(case):
    """``random_messages`` draws in the order the per-edge form drew, each
    message normalized as it was alone, and ``uniform_messages`` stacks
    the per-edge uniform vectors."""
    tn = CASES[case]()[0]
    for got, want in [(random_messages(tn, seed=4),
                       oracles.random_messages(tn, seed=4)),
                      (uniform_messages(tn), oracles.uniform_messages(tn))]:
        got = oracles.per_edge(got)
        assert list(got) == sorted(want)
        for key, m in want.items():
            assert got[key].leg_ids == m.leg_ids
            assert np.array_equal(got[key].data, m.data), key


def test_bp_run_builds_one_plan_and_no_message_tensor(monkeypatch, capsys):
    """A ``bp`` run builds one plan, which the start messages, the
    iteration, its result and the stability probe share.  The iteration
    compiles a sweep for one message set and the probe one for its
    chains; each drops its sweep when it returns, though the messages,
    which carry the plan, live on.  The messages stay stacked, so the run
    builds no ``DenseTensor`` at all."""
    import bptn.cli

    spec = "ising:L=3,beta=0.34,h=0.05"
    prob = generate(spec, 0)
    plans, compiles, tensors, refs = [], [], [], []

    class CountedPlan(_Plan):
        def __init__(self, tn):
            plans.append(tn)
            super().__init__(tn)

        def compile(self, lead=()):
            compiled = super().compile(lead)
            compiles.append(lead)
            refs.extend(weakref.ref(x) for x in _arrays(compiled))
            return compiled

    def all_dropped():
        gc.collect()
        return refs and [ref() for ref in refs] == [None] * len(refs)

    probe = bptn.cli.stability_probe

    def checked_probe(messages, seed):
        assert compiles == [()] and all_dropped()
        out = probe(messages, seed=seed)
        assert compiles == [(), (PROBE_PERTURBATIONS,)] and all_dropped()
        return out

    init = DenseTensor.__init__

    def counted_tensor(self, legs, data):
        tensors.append(len(legs))
        init(self, legs, data)

    monkeypatch.setattr(bptn.cli, "generate", lambda spec, seed: prob)
    monkeypatch.setattr(bptn.cli, "stability_probe", checked_probe)
    monkeypatch.setattr(bptn.bp, "_Plan", CountedPlan)
    monkeypatch.setattr(DenseTensor, "__init__", counted_tensor)
    assert bptn.cli.main(["bp", "--generate", spec]) == 0
    capsys.readouterr()
    assert plans == [prob.tn]
    assert compiles == [(), (PROBE_PERTURBATIONS,)] and all_dropped()
    assert tensors == []


REUSE_CASES = dict(CHAIN_CASES, tree=lambda: CASES["tree"]()[0])


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_sweep_updates_survive_the_next_sweep(case):
    """A sweep returns fresh arrays: the next sweep of the same compiled
    sweep, on other messages, refills its buffers but leaves the updates
    already returned as they were."""
    tn = REUSE_CASES[case]()
    compiled = _Plan(tn).compile()
    first = _sweep(compiled, random_messages(tn, seed=1).data)
    kept = {d: x.copy() for d, x in first.items()}
    again = _sweep(compiled, random_messages(tn, seed=2).data)
    for d, x in kept.items():
        assert np.array_equal(first[d], x)
        assert not np.array_equal(again[d], x)


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_alternating_chain_shapes_match_fresh_plans(case):
    """Sweeps compiled for (rows, d) and for (3, rows, d) stacks, each
    reused on its own shape in turn, give each time bit for bit what a
    fresh compile gives on its first sweep.  A stack of the other shape
    fails loudly and rebinds nothing."""
    tn = REUSE_CASES[case]()
    plan = _Plan(tn)
    compiled = {lead: plan.compile(lead) for lead in [(), (3,)]}
    arrays = {lead: list(_arrays(c)) for lead, c in compiled.items()}
    for s in range(3):
        chains = [random_messages(tn, seed=10 * s + c).data for c in range(3)]
        stacks = {(): chains[s], (3,): {d: np.stack([c[d] for c in chains])
                                        for d in chains[0]}}
        for lead, msgs in stacks.items():
            got = _sweep(compiled[lead], msgs)
            want = _sweep(_Plan(tn).compile(lead), msgs)
            assert list(got) == list(want)
            for d in want:
                assert np.array_equal(got[d], want[d]), (s, lead, d)
            with pytest.raises(ValueError):
                _sweep(compiled[lead], stacks[(3,) if lead == () else ()])
            now = list(_arrays(compiled[lead]))
            assert len(now) == len(arrays[lead])
            assert all(x is y for x, y in zip(now, arrays[lead]))


def _arrays(x):
    """Every ndarray in nested tuples, lists and dict values."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list, dict)):
        for y in x.values() if isinstance(x, dict) else x:
            yield from _arrays(y)


def test_plans_of_different_networks_share_no_buffers():
    """Two networks with the same tensor shapes get buffers of their own,
    and sweeping one does not move the other's updates; the buffers live
    on the compiled sweep and go with it."""
    nets = [generate(spec, 0).tn for spec in ("ising:L=3,beta=0.34,h=0.05",
                                              "ising:L=3,beta=0.3,h=0.1")]
    plans = [_Plan(tn) for tn in nets]
    msgs = [random_messages(tn, seed=4).data for tn in nets]
    want = [_sweep(_Plan(tn).compile(), m) for tn, m in zip(nets, msgs)]
    for _ in range(2):
        for plan, m, w in zip(plans, msgs, want):
            got = _sweep(plan.compile(), m)
            assert all(np.array_equal(got[d], w[d]) for d in w)
    a, b = (list(_arrays(plan.compile())) for plan in plans)
    assert a and b
    assert not any(np.shares_memory(x, y) for x in a for y in b)
    refs = [weakref.ref(x) for x in a]
    del plans[0], a
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
