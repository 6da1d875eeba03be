import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bptn.errors import BudgetError, InputError
from bptn.tensor import (DenseTensor, _plan, contract_closed,
                         contract_many, contract_network, contract_pair)
from oracles import inner


def test_canonical_leg_order():
    data = np.arange(6.0).reshape(2, 3)
    a = DenseTensor(["b", "a"], data)
    b = DenseTensor(["a", "b"], data.T)
    assert a.leg_ids == b.leg_ids == ["a", "b"]
    assert np.array_equal(a.data, b.data)


def test_duplicate_legs_rejected():
    with pytest.raises(InputError, match="^duplicate leg ids on one tensor"):
        DenseTensor(["x", "x"], np.zeros((2, 2)))


def test_size_mismatch_rejected():
    """The array's rank must equal the number of leg ids, and no axis may
    have length 0."""
    for ids, shape in [(["x", "y"], 5), (["x"], (2, 2)), (["x", "y"], (2, 0))]:
        with pytest.raises(InputError, match="^data shape .* does not fit "
                           "leg ids"):
            DenseTensor(ids, np.zeros(shape))


def test_contract_pair_matches_einsum():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    ta = DenseTensor(["i", "j", "k"], a)
    tb = DenseTensor(["j", "k", "l"], b)
    out = contract_pair(ta, tb)
    want = np.einsum("ijk,jkl->il", a, b)
    assert out.leg_ids == ["i", "l"]
    assert np.allclose(out.data, want)


def test_contract_pair_dim_clash():
    with pytest.raises(InputError, match="dim 2 vs 3$"):
        contract_pair(DenseTensor(["x"], np.zeros(2)),
                      DenseTensor(["x"], np.zeros(3)))


def test_inner_is_bilinear_no_conjugation():
    v = DenseTensor(["e"], [1.0, 1j])
    # bilinear: sum v_i w_i, so <v, v> = 1 + (1j)^2 = 0
    assert abs(inner(v, v)) < 1e-15
    w = DenseTensor(["e"], [1.0, -1j])
    assert abs(inner(v, w) - 2.0) < 1e-15


def test_relabel_and_scale():
    a = DenseTensor(["x", "y"], np.eye(2))
    b = oracles.scale(oracles.relabel(a, {"x": "z"}), 2.0)
    assert sorted(b.leg_ids) == ["y", "z"]
    assert np.allclose(np.sort(b.data.ravel()), [0, 0, 2, 2])


def test_contract_network_matches_single_einsum():
    rng = np.random.default_rng(1)
    shapes = {"a": [("i", 2), ("j", 3)], "b": [("j", 3), ("k", 2)],
              "c": [("k", 2), ("i", 2)]}
    tens = {n: DenseTensor([i for i, _ in ld],
                           rng.standard_normal([d for _, d in ld])
                           + 1j * rng.standard_normal([d for _, d in ld]))
            for n, ld in shapes.items()}
    got = contract_network(list(tens.values())).item()
    # tensors canonicalize legs to sorted id order, so "c" is stored (i, k)
    want = np.einsum("ij,jk,ik->", tens["a"].data, tens["b"].data,
                     tens["c"].data)
    assert abs(got - want) < 1e-12 * abs(want)


def test_contract_network_open_legs():
    a = DenseTensor(["i", "j"], np.ones((2, 3)))
    b = DenseTensor(["j"], np.ones(3))
    out = contract_network([a, b])
    assert out.leg_ids == ["i"]
    assert np.allclose(out.data, [3.0, 3.0])


def test_contract_network_size_cap():
    big = [DenseTensor([f"x{i}", f"x{i+1}"], np.ones((2, 2)))
           for i in range(0, 40, 2)]  # disjoint pairs -> outer products
    with pytest.raises(BudgetError, match="exceeds cap 1024$"):
        contract_network(big, size_cap=2 ** 10)


def test_scalar_item():
    s = DenseTensor([], 3.5 - 1j)
    assert s.item() == 3.5 - 1j
    assert s.data.shape == contract_network([s, s]).data.shape == ()
    with pytest.raises(InputError, match=r"^item\(\) on a non-scalar tensor$"):
        DenseTensor(["x"], [1.0, 2.0]).item()


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(4))), st.integers(0, 2 ** 31 - 1))
def test_contraction_order_independence(perm, seed):
    """Greedy contraction result is independent of input tensor order."""
    rng = np.random.default_rng(seed)
    # ring of 4 tensors
    tens = [DenseTensor([f"e{i}", f"e{(i + 1) % 4}"], rng.standard_normal(
        (2, 2)) + 1j * rng.standard_normal((2, 2)))
            for i in range(4)]
    base = contract_network(tens).item()
    shuffled = contract_network([tens[i] for i in perm]).item()
    assert abs(base - shuffled) <= 1e-12 * max(1.0, abs(base))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_inner_symmetric(seed):
    rng = np.random.default_rng(seed)
    a, b = (DenseTensor(["e"], rng.standard_normal(3)
                        + 1j * rng.standard_normal(3)) for _ in range(2))
    assert abs(inner(a, b) - inner(b, a)) < 1e-13


def test_contract_network_dim_clash():
    with pytest.raises(InputError, match="dim 2 vs 3$"):
        contract_network([DenseTensor(["x"], np.zeros(2)),
                          DenseTensor(["x", "y"], np.zeros((3, 2)))])


@st.composite
def _networks(draw):
    """Random small networks: each leg sits on one tensor (open) or two
    (contracted); tensors without legs are scalars, and nothing keeps the
    network connected."""
    n = draw(st.integers(1, 6))
    n_legs = draw(st.integers(0, 8))
    # ids in an order unrelated to creation, so canonical order matters
    names = draw(st.permutations([f"l{k}" for k in range(n_legs)]))
    legs = [(name, draw(st.integers(1, 3)),
             draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                           unique=True)))
            for name in names]
    return n, legs, draw(st.integers(0, 2 ** 31 - 1))


def _einsum_reference(tensors, out_ids, absolute=False):
    labels = {}
    args = []
    for x in tensors:
        data = x.data
        args += [np.abs(data) if absolute else data,
                 [labels.setdefault(i, len(labels)) for i in x.leg_ids]]
    return np.einsum(*args, [labels[i] for i in out_ids])


def _random_tensors(net, rng, rename=lambda i: i):
    """The tensors of a ``_networks`` draw, leg ids through ``rename``."""
    n, legs, _ = net
    tens = []
    for k in range(n):
        ld = [(rename(name), dim) for name, dim, owners in legs
              if k in owners]
        shape = [d for _, d in ld]
        tens.append(DenseTensor([i for i, _ in ld], rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape)))
    return tens


def _renamed(i):
    """A leg id renamed: same structure, the sorted leg order reversed."""
    return f"z{9 - int(i[1:])}"


@settings(max_examples=60, deadline=None)
@given(_networks())
def test_contract_network_matches_einsum(net):
    """contract_network equals one np.einsum over the same network, and a
    renamed copy (same structure, so the cached pair order is reused)
    equals it too."""
    _, legs, seed = net
    rng = np.random.default_rng(seed)
    open_ids = sorted(name for name, _, owners in legs if len(owners) == 1)
    for rename in (lambda i: i, _renamed):
        tens = _random_tensors(net, rng, rename)
        out_ids = sorted(rename(i) for i in open_ids)
        got = contract_network(tens)
        want = _einsum_reference(tens, out_ids)
        # a bound on the rounding of any summation order
        scale = _einsum_reference(tens, out_ids, absolute=True)
        assert got.leg_ids == out_ids
        assert np.all(np.abs(got.data - want) <= 1e-12 * scale)


def _numbered(pool):
    """(the pool with its leg ids numbered in order of first appearance,
    the ids by number)."""
    index = {}
    return [(tuple(index.setdefault(i, len(index)) for i in ids), data)
            for ids, data in pool], list(index)


@settings(max_examples=60, deadline=None)
@given(st.lists(_networks(), min_size=1, max_size=4))
def test_contract_many_matches_per_call_oracle(nets):
    """Each network of a bulk call, and its renamed copy in the same call
    (same structure, so one group), equals the per-call ``np.tensordot``
    oracle bit for bit; numbered by the caller, it equals the kernel that
    interned leg ids itself under ``==``."""
    tens = []
    for net in nets:
        rng = np.random.default_rng(net[2])
        tens += [_random_tensors(net, rng),
                 _random_tensors(net, rng, _renamed)]
    pools = [[(x.leg_ids, x.data) for x in ts] for ts in tens]
    numbered = [_numbered(pool) for pool in pools]
    got = contract_many([pool for pool, _ in numbered])
    interned = oracles.interning_contract_many(pools)
    for ts, (_, ids), (legs, data), (want_ids, want_data) in zip(
            tens, numbered, got, interned):
        assert tuple(ids[x] for x in legs) == want_ids
        assert np.array_equal(data, want_data)
        want = oracles.contract_network(ts)
        out = DenseTensor([ids[x] for x in legs], data)
        assert out.leg_ids == want.leg_ids
        assert np.array_equal(out.data, want.data)


@st.composite
def _structures(draw):
    """Integer leg structures: each leg on one, two or three tensors;
    tensors may have no legs, and nothing keeps the network connected."""
    n = draw(st.integers(1, 7))
    n_legs = draw(st.integers(0, 10))
    dims = [draw(st.integers(1, 4)) for _ in range(n_legs)]
    legs = [[] for _ in range(n)]
    for x in range(n_legs):
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=3, unique=True)):
            legs[k].append(x)
    return [tuple(draw(st.permutations(l))) for l in legs], dims


@settings(max_examples=200, deadline=None)
@given(_structures())
def test_plan_matches_search_over_every_pair(structure):
    """Searching only the pairs that share a leg, while any do, gives the
    plan the search over every pair gives."""
    struct, dims = structure
    steps, out = _plan(struct, dims)
    assert (tuple(s[:5] for s in steps), out) == oracles.plan(struct, dims)


_CLOSED = [((0,), np.ones(2)), ((0,), np.ones(2))]


def test_contract_many_dim_clash_in_any_pool():
    with pytest.raises(InputError, match="dim 2 vs 3$"):
        contract_many([_CLOSED, [((0,), np.ones(2)), ((0,), np.ones(3))]])


def test_contract_closed_refuses_open_legs():
    assert contract_closed([_CLOSED]) == [2.0]
    with pytest.raises(InputError, match="^open legs on a closed network$"):
        contract_closed([_CLOSED, [((0, 1), np.ones((2, 2)))]])


def test_contract_many_size_cap():
    small = [((0,), np.ones(2)), ((0, 1), np.ones((2, 3)))]
    assert contract_many([small], size_cap=3)[0][1].shape == (3,)
    with pytest.raises(BudgetError, match="exceeds cap 2$"):
        contract_many([small], size_cap=2)
