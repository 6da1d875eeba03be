import cmath
import math
import warnings

import numpy as np
import pytest

import oracles
from bptn.bp import (MessageSet, bp_free_energy, bp_iterate,
                     bp_log_partition, local_factors, random_messages,
                     stability_probe, uniform_messages)
from bptn.cli import generate
from bptn.errors import InputError, NumericalError
from bptn.models import (IsingParams, ising_insertion, ising_network,
                         ising_paramagnetic_messages, random_peps,
                         random_tree_network, single_loop_network)
from bptn.network import exact_contract
from bptn.observables import InsertionProblem
from bptn.tensor import DenseTensor
from oracles import edge_projector, self_consistency_residual
from test_bp_sweep import _mixed_dims


def test_tree_bp_exact():
    tn = random_tree_network(12, D=3, seed=1)
    res = bp_iterate(tn, uniform_messages(tn))
    assert res.converged
    log_abs, phase = bp_free_energy(res.messages)
    z = exact_contract(tn)
    assert abs(log_abs - math.log(abs(z))) < 1e-10
    assert abs(cmath.exp(1j * (phase - cmath.phase(z))) - 1) < 1e-8


@pytest.mark.parametrize("im, want", [
    (-4.2e-18, -4.2e-18), (-0.0, 0.0), (-math.pi, math.pi),
    (7.0, 7.0 - 2 * math.pi)])
def test_bp_phase_is_the_principal_value(monkeypatch, im, want):
    """Im log Z_BP maps to (-pi, pi] exactly, and a signed zero to 0.0."""
    import bptn.bp

    monkeypatch.setattr(bptn.bp, "bp_log_partition",
                        lambda messages: complex(1.0, im))
    _, phase = bp_free_energy(None)
    assert phase == want and str(phase) == str(want)


def test_paramagnetic_fixed_point_residual_zero():
    p = IsingParams(L=4, beta=0.3)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    assert self_consistency_residual(ms) < 1e-14


def test_bp_iterate_reaches_fixed_point():
    p = IsingParams(L=4, beta=0.25, h=0.2)
    tn = ising_network(p)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-12)
    assert res.converged
    assert self_consistency_residual(res.messages) < 1e-10


def test_degenerate_edge_refused_where_it_is_read():
    """The stacked edge tables leave out an edge whose bilinear norm is
    below the floor.  Reading it, as its inner product, its projector or
    a message dressed across it, raises NumericalError; the other
    edges, and a tensor dressed with that edge kept, stay usable."""
    tn = ising_network(IsingParams(L=3, beta=0.2))
    msgs = oracles.per_edge(uniform_messages(tn))
    e0 = sorted(tn.graph.edges)[0]
    u, w = tn.graph.edges[e0]
    null = DenseTensor([e0], np.array([1.0, 1j]) / math.sqrt(2))
    msgs[u, w] = msgs[w, u] = null
    ms = MessageSet(tn, msgs)
    for read in (ms.inner_product, ms.projector):
        with pytest.raises(NumericalError, match="below floor on edge"):
            read(e0)
    e1 = sorted(tn.graph.edges)[-1]
    assert not {u, w} & set(tn.graph.edges[e1])
    assert np.array_equal(ms.projector(e1), oracles.projector(ms, e1))
    with pytest.raises(NumericalError, match="below floor on edge"):
        ms.dressed([(u, tn.tensors[u], ())])
    kept = tuple(sorted(e for e, _ in tn.graph.incident(u)))
    ((ids, data),) = ms.dressed([(u, tn.tensors[u], kept)])
    assert list(ids) == tn.tensors[u].leg_ids
    assert np.array_equal(data, tn.tensors[u].data)


@pytest.mark.parametrize("spec", ["ising:L=3,beta=0.3,h=0.1", "loop:n=4",
                                  "tree:n=12,D=3"])
def test_projector_is_the_oracle_edge_projector(spec):
    """``MessageSet.projector`` builds P_perp in ``graph.edges[e]`` order
    itself; the oracle's tensor, turned back from its canonical leg order,
    is the same array bit for bit.  The loop and the tree each have an
    edge whose endpoints sort the other way."""
    tn = generate(spec, 0).tn
    ms = random_messages(tn, seed=2)
    for e in tn.graph.edges:
        u, _ = tn.graph.edges[e]
        p = edge_projector(ms, e)
        want = p.data if p.leg_ids[0] == f"{e}@{u}" else p.data.T
        assert np.array_equal(ms.projector(e), want), e


def test_edge_projector_annihilates_messages():
    p = IsingParams(L=4, beta=0.25, h=0.1)
    tn = ising_network(p)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-12).messages
    e = sorted(tn.graph.edges)[0]
    u, v = tn.graph.edges[e]
    proj = edge_projector(ms, e)
    into_u = oracles.relabel(oracles.message(ms, v, u), {e: f"{e}@{u}"})
    into_v = oracles.relabel(oracles.message(ms, u, v), {e: f"{e}@{v}"})
    from bptn.tensor import contract_pair

    assert np.linalg.norm(contract_pair(proj, into_u).data) < 1e-10
    assert np.linalg.norm(contract_pair(proj, into_v).data) < 1e-10
    # idempotent: P^2 = P (contract the v-side of one copy into the
    # u-side of the other)
    p2 = contract_pair(oracles.relabel(proj, {f"{e}@{v}": "mid"}),
                       oracles.relabel(proj, {f"{e}@{u}": "mid"}))
    assert sorted(p2.leg_ids) == sorted(proj.leg_ids)
    assert np.allclose(p2.data, proj.data, atol=1e-10)


def test_single_loop_partition_identity():
    tn = single_loop_network(6, seed=3)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    z_bp = cmath.exp(bp_log_partition(res.messages))
    z = exact_contract(tn)
    # ratio Z/Z_BP - 1 is the single loop weight; just check consistency
    assert abs(z / z_bp - 1) < 1.0  # loop correction is small but nonzero
    assert abs(z_bp) > 0


def test_stability_probe_matches_analytic_growth():
    """For the symmetric Ising fixed point the dominant eigenvalue of the
    sweep map is 3 tanh(beta) (non-backtracking spectral radius times the
    bond eigenvalue ratio)."""
    for beta in (0.3, 0.36):
        p = IsingParams(L=4, beta=beta)
        tn = ising_network(p)
        ms = ising_paramagnetic_messages(p, tn)
        verdict, g = stability_probe(ms, seed=0)
        assert abs(g - 3 * math.tanh(beta)) < 1e-6
        assert verdict == ("stable" if 3 * math.tanh(beta) < 1 else "unstable")


def test_local_factor_cancellation_on_edge():
    """z_v computed locally is consistent: contracting message into z."""
    p = IsingParams(L=4, beta=0.2)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    z = local_factors(ms, ["0,0"])["0,0"]
    # paramagnetic point: z_v = 2 * prod_e lambda_+(beta)/... just nonzero
    assert abs(z) > 0.1


def test_local_factor_cached_per_tensor_object(monkeypatch):
    """z_v is the dressed tensor with no kept edge: a decorated site tensor
    gets a cache entry of its own, the base entry stays as it was, the
    insertion's BP expectation reads both from the cache, and both are
    what an empty cache computes."""
    import bptn.bp

    p = IsingParams(L=4, beta=0.3, h=0.2)
    tn = ising_network(p)
    ms = bp_iterate(tn, uniform_messages(tn)).messages
    site = "1,1"
    sz = ising_insertion(tn, p, {site: np.diag([1.0, -1.0])})[site]
    built = []
    bulk = bptn.bp.contract_many

    def counting(pools):
        built.extend(len(pool) for pool in pools)
        return bulk(pools)

    def z(messages, tensor):
        ((ids, data),) = messages.dressed([(site, tensor, ())])
        assert ids == ()
        return complex(data)

    monkeypatch.setattr(bptn.bp, "contract_many", counting)
    base = local_factors(ms, [site])[site]
    decorated = z(ms, sz)
    assert built == [5, 5]      # each tensor and its four messages, once
    assert decorated != base
    assert local_factors(ms, [site])[site] == base
    assert z(ms, sz) == decorated
    assert z(ms, tn.tensors[site]) == base
    prob = InsertionProblem(ms, {site: sz})
    assert prob.alphas() == {site: decorated / base}
    assert built == [5, 5]
    fresh = MessageSet(tn, oracles.per_edge(ms))
    assert z(fresh, sz) == decorated
    assert local_factors(fresh, [site])[site] == base


def _zv_case(name):
    """(network, messages) of a case for the z_v oracle."""
    spec = {"bp_stability": "ising:L=3,beta=0.34,h=0.05",
            "peps_3x3": "peps:rows=3,cols=3,D=2",
            "tree": "tree:n=12,D=3", "edgeless": "tree:n=1"}.get(name)
    tn = generate(spec, 0).tn if spec else _mixed_dims()
    res = bp_iterate(tn, uniform_messages(tn))
    assert res.converged
    return tn, res.messages


@pytest.mark.parametrize("name", ["bp_stability", "peps_3x3",
                                  "mixed_dims", "tree", "edgeless"])
def test_local_factors_match_per_message_oracle(name):
    """``local_factors`` (site tensors dressed in bulk) and the insertion's
    BP expectation (a perturbed site tensor's z_v over the site's) agree
    with z_v contracted one incoming message at a time."""
    tn, ms = _zv_case(name)
    got = local_factors(ms, tn.graph.vertices)
    assert list(got) == list(tn.graph.vertices)
    for v, z in got.items():
        want = oracles.local_factor(ms, v, tn.tensors[v])
        assert abs(z - want) <= 1e-12 * abs(want), v
    rng = np.random.default_rng(7)
    for v in tn.graph.vertices[:3]:
        t = tn.tensors[v]
        repl = DenseTensor(t.leg_ids, t.data * (1 + 0.5 * rng.standard_normal(
            t.data.shape)))
        (alpha,) = InsertionProblem(ms, {v: repl}).alphas().values()
        want = (oracles.local_factor(ms, v, repl)
                / oracles.local_factor(ms, v, t))
        assert abs(alpha - want) <= 1e-12 * abs(want), v


def test_numerical_collapse_on_zero_tensor():
    from bptn.network import Graph, TensorNetwork

    g = Graph(["a", "b"], {"e": ("a", "b")})
    zero = DenseTensor(["e"], [0.0, 0.0])
    tn = TensorNetwork(g, {"a": zero, "b": zero})
    with pytest.raises(NumericalError,
                       match="^message update collapsed to zero$"):
        bp_iterate(tn, uniform_messages(tn))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
def test_normalize_rows_refuses_a_norm_that_is_not_finite(bad):
    """A row whose norm overflows or is nan raises, as a zero row does;
    the other rows are fine, and nan compares false against the floor."""
    from bptn.bp import _normalize_rows

    x = np.ones((5, 2), dtype=complex)
    x[3, 1] = bad
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="not finite"):
        _normalize_rows(x)


@pytest.mark.parametrize("argv", [
    # the update norms overflow to inf in the first sweep
    ["bp", "--generate", "ising:L=3,beta=200"],
    ["free-energy", "--generate", "ising:L=3,beta=200", "-m", "4"],
])
def test_cli_exits_3_on_messages_that_are_not_finite(argv, capsys):
    """Not a converged run with nan rows: a numerical error, exit 3, and
    the refusal is the only line on stderr, with no numpy warning before
    it."""
    from bptn.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("numerical error: message update is not finite: "
                       "its norm overflowed or is nan\n")


def test_bp_refuses_open_network():
    """Messages live on bond legs only; a PEPS with physical legs must go
    through build_norm_network first."""
    peps = random_peps(2, 2, D=2, seed=0)
    with pytest.raises(InputError, match="^BP runs on closed networks"):
        bp_iterate(peps, uniform_messages(peps))


def test_message_set_refuses_a_missing_or_unknown_edge():
    """Every directed edge of the network needs a message, and only its
    edges may have one: refused where the set is built."""
    tn = ising_network(IsingParams(L=3, beta=0.2))
    msgs = oracles.per_edge(uniform_messages(tn))
    (u, w), m = next(iter(msgs.items()))
    with pytest.raises(InputError, match=f"^{u}->{w}: no message$"):
        MessageSet(tn, {k: x for k, x in msgs.items() if k != (u, w)})
    with pytest.raises(InputError,
                       match="^0,0->1,1: no such edge$"):
        MessageSet(tn, {**msgs, ("0,0", "1,1"): m})


def test_bp_iterate_refuses_messages_of_another_network():
    """Messages carry the plan of their network; started on another one,
    smaller or larger, the iteration refuses them before any sweep."""
    small, large = (ising_network(IsingParams(L=L, beta=0.3)) for L in (3, 4))
    for tn, other in [(large, small), (small, large)]:
        with pytest.raises(InputError,
                           match="^the messages are of another network$"):
            bp_iterate(tn, uniform_messages(other))


def test_degenerate_inner_product_guard():
    p = IsingParams(L=2, beta=0.2)
    tn = ising_network(p)
    # hand-build messages with a self-orthogonal vector (bilinear norm 0)
    msgs = {}
    for e, (u, v) in tn.graph.edges.items():
        vec = np.array([1.0, 1j]) / math.sqrt(2)
        msgs[(u, v)] = DenseTensor([e], vec)
        msgs[(v, u)] = DenseTensor([e], vec)
    ms = MessageSet(tn, msgs)
    e0 = sorted(tn.graph.edges)[0]
    with pytest.raises(NumericalError,
                       match=f"below floor on edge {e0!r}$"):
        ms.inner_product(e0)
