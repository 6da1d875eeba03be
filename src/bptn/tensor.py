"""Minimal dense labeled-leg tensor kernel.

A tensor is its leg ids and a complex ndarray whose axes follow them; a
leg's dimension is its axis length.  The ids are kept in canonical
(sorted) order, so equality of tensors is independent of construction
history.

``contract_many`` is the one contraction kernel: it groups many small
networks by structure and runs each step of a group's greedy pair plan
once, as a stacked matmul on raw arrays, bit for bit what ``np.tensordot``
gives one pair at a time (the per-call form ``tests/oracles.py`` keeps).
Its legs are integers 0..L-1 per pool, numbered by the caller, who knows
the pool's shape: ``contract_network`` by first appearance of a leg id,
``loops.excitation_weight`` by its walk, ``MessageSet.dressed`` by tensor
position, ``cumulants.region_partition`` once per region.  A plan knows
legs only by number, so pools of one shape numbered alike share it.

The pairing used throughout is the *bilinear* star contraction -- no
complex conjugation is ever implied.  All operations are pure.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, InputError


class DenseTensor:
    """Dense complex tensor: leg ids, sorted, and an array whose axes
    follow them, so each leg's dimension is its axis length."""

    __slots__ = ("leg_ids", "data")

    def __init__(self, leg_ids: Sequence[str], data):
        ids = [str(x) for x in leg_ids]
        if len(set(ids)) != len(ids):
            raise InputError(f"duplicate leg ids on one tensor: {ids}")
        data = np.asarray(data, dtype=complex)
        if data.ndim != len(ids) or 0 in data.shape:
            raise InputError(
                f"data shape {data.shape} does not fit leg ids {ids}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.leg_ids = [ids[i] for i in order]
        # asarray keeps a scalar 0-d, where ascontiguousarray makes it (1,)
        self.data = np.asarray(np.transpose(data, order), order="C")

    def item(self) -> complex:
        if self.leg_ids:
            raise InputError("item() on a non-scalar tensor")
        return complex(self.data.item())

    def __repr__(self):
        return f"DenseTensor({self.leg_ids!r}, shape={self.data.shape})"


def contract_pair(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Contract all shared legs of a and b (star operation): a tensor over
    the symmetric difference of the leg sets, a scalar on full overlap."""
    return contract_network([a, b])


# Greedy pair plans, keyed by network structure (see ``_groups``).  A plan
# depends only on the structure, never on values, so sharing it between
# callers is safe; the dict is emptied when it reaches _PLAN_CACHE_MAX.
_PLANS: dict = {}
_PLAN_CACHE_MAX = 4096


def _plan(struct, dims):
    """Greedy pair order for tensors with integer legs ``struct``.

    Repeatedly picks the pair whose result has the fewest entries among
    the pairs that share a leg, or among all pairs when none does; ties go
    to the first pair in pool order.  The contracted pair leaves the pool
    and its result is appended.  Returns (steps, legs of the result), each
    step (i, j, axes of i, axes of j, result entries, matmul), the axes
    in tensordot order (i's open legs, then j's).  ``matmul`` runs the
    step on arrays stacked along axis 0: (axes permutation and matrix
    shape of i, the same of j, result shape), or None for an outer
    product.
    """
    pool = dict(enumerate(struct))  # by id; ids grow, so in pool order
    sizes = {k: math.prod(dims[x] for x in legs) for k, legs in pool.items()}
    owners, shared = {}, {}  # leg -> ids; (id, id) -> common dims product
    for k, legs in pool.items():
        for x in legs:
            for o in owners.setdefault(x, []):
                shared[o, k] = shared.get((o, k), 1) * dims[x]
            owners[x].append(k)
    steps = []
    while len(pool) > 1:
        pairs = shared or {(p, q): 1 for p in pool for q in pool if p < q}
        out_size, p, q = min([(sizes[p] * sizes[q] // (c * c), p, q)
                              for (p, q), c in pairs.items()])
        order = list(pool)
        i, j = order.index(p), order.index(q)
        a, b, c = pool.pop(p), pool.pop(q), pairs[p, q]
        common = [x for x in a if x in b]
        ax_i = [a.index(x) for x in common]
        ax_j = [b.index(x) for x in common]
        free_a = [k for k, x in enumerate(a) if x not in common]
        free_b = [k for k, x in enumerate(b) if x not in common]
        rest = tuple([a[k] for k in free_a] + [b[k] for k in free_b])
        steps.append((i, j, tuple(ax_i), tuple(ax_j), out_size, (
            (0, *[k + 1 for k in free_a + ax_i]), (-1, sizes[p] // c, c),
            (0, *[k + 1 for k in ax_j + free_b]), (-1, c, sizes[q] // c),
            (-1, *[dims[x] for x in rest])) if common else None))
        t = len(struct) + len(steps)
        pool[t], sizes[t] = rest, out_size
        shared = {k: v for k, v in shared.items() if p not in k and q not in k}
        for x in a:
            owners[x].remove(p)
        for x in b:
            owners[x].remove(q)
        for x in rest:
            for o in owners[x]:
                shared[o, t] = shared.get((o, t), 1) * dims[x]
            owners[x].append(t)
    return tuple(steps), next(iter(pool.values()), ())


def _groups(pools) -> dict:
    """{(structure, dims): [pool index]}: a structure is each array's leg
    tuple, dims the dimension of each leg 0..L-1."""
    found = {}
    for n, pool in enumerate(pools):
        found.setdefault(tuple([(legs, data.shape) for legs, data in pool]),
                         []).append(n)
    groups = {}
    for layout, members in found.items():
        dims = {}
        for legs, shape in layout:
            for x, dim in zip(legs, shape):
                if dims.setdefault(x, dim) != dim:
                    raise InputError(f"leg {x}: dim {dims[x]} vs {dim}")
        key = (tuple([legs for legs, _ in layout]),
               tuple(dims[x] for x in range(len(dims))))
        groups.setdefault(key, []).extend(members)
    return groups


def contract_many(pools, size_cap: int | None = None) -> list:
    """Contract many networks at once: (open legs, array) per pool.

    A pool is a sequence of (legs, array) pairs, legs a tuple of the
    integers 0..L-1 that its caller numbers them by.  Pools of one
    structure share a greedy pair plan, computed once and cached, and
    each plan step runs once per structure on the stacked arrays: a pair
    sharing legs is one batched matmul of the matrices ``np.tensordot``
    forms for one pair.  ``size_cap`` bounds the entry count of any
    intermediate.  A leg id on more than two arrays is contracted by the
    first pair that shares it and stays open on the others.
    """
    out = [None] * len(pools)
    for key, members in _groups(pools).items():
        if key not in _PLANS and len(_PLANS) >= _PLAN_CACHE_MAX:
            _PLANS.clear()
        steps, legs = _PLANS.get(key) or _PLANS.setdefault(key, _plan(*key))
        # scalars (no legs) stay lists of their arrays, and so do outer
        # products, row by row: np.multiply.outer rounds by memory layout
        arrays = [np.array([pools[n][k][1] for n in members]) if legs_k
                  else [pools[n][k][1] for n in members]
                  for k, legs_k in enumerate(key[0])] or [
                      [np.ones(1, dtype=complex)] * len(members)]
        for i, j, _, _, out_size, matmul in steps:
            if size_cap is not None and out_size > size_cap:
                raise BudgetError(f"intermediate with {out_size} entries "
                                  f"exceeds cap {size_cap}")
            b = arrays.pop(j)
            a = arrays.pop(i)
            if matmul is None:
                arrays.append([np.multiply.outer(x, y) for x, y in zip(a, b)])
                continue
            perm_a, mat_a, perm_b, mat_b, shape = matmul
            a = a.transpose(perm_a).reshape(mat_a)
            b = b.transpose(perm_b).reshape(mat_b)
            # a sum of one term is a scaling to np.dot, not to np.matmul
            arrays.append((np.matmul(a, b) if mat_a[2] > 1 else np.array(
                [np.dot(x, y) for x, y in zip(a, b)])).reshape(shape))
        rows = arrays[0]
        if isinstance(rows, list):
            rows = [np.reshape(r, [key[1][x] for x in legs]) for r in rows]
        for row, n in enumerate(members):
            out[n] = (legs, rows[row])
    return out


def contract_closed(pools, size_cap: int | None = None) -> list:
    """The scalar value of each closed pool (see ``contract_many``)."""
    out = contract_many(pools, size_cap)
    if any(ids for ids, _ in out):
        raise InputError("open legs on a closed network")
    return [complex(data.item()) for _, data in out]


def contract_network(tensors: Iterable[DenseTensor],
                     size_cap: int | None = None) -> DenseTensor:
    """Contract one network (see ``contract_many``); disconnected pieces
    end up combined by outer products at the end."""
    index = {}      # leg id -> its number, in order of first appearance
    ((legs, data),) = contract_many([[(tuple([
        index.setdefault(x, len(index)) for x in t.leg_ids]), t.data)
        for t in tensors]], size_cap)
    ids = list(index)
    return DenseTensor([ids[x] for x in legs], data)
