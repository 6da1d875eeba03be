"""Minimal dense labeled-leg tensor kernel.

Tensors carry an ordered list of legs, each a (string id, dimension) pair,
and a complex ndarray whose axes follow the leg order.  After every
operation legs are brought to canonical (sorted-by-id) order, so equality
of tensors is independent of construction history.

The pairing used throughout is the *bilinear* star contraction -- no
complex conjugation is ever implied.  All operations are pure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, LegCollision, TooLarge


class Leg:
    """A labeled tensor leg. ``id`` is a string, ``dim`` a positive int."""

    __slots__ = ("id", "dim")

    def __init__(self, id: str, dim: int):
        if dim < 1:
            raise DimensionMismatch(f"leg {id!r}: dim must be >= 1, got {dim}")
        self.id = str(id)
        self.dim = int(dim)

    def __repr__(self):
        return f"Leg({self.id!r}, {self.dim})"

    def __eq__(self, other):
        return isinstance(other, Leg) and self.id == other.id and self.dim == other.dim

    def __hash__(self):
        return hash((self.id, self.dim))


class DenseTensor:
    """Dense complex tensor with canonically ordered labeled legs."""

    __slots__ = ("legs", "data")

    def __init__(self, legs: Sequence[Leg], data):
        legs = [l if isinstance(l, Leg) else Leg(*l) for l in legs]
        ids = [l.id for l in legs]
        if len(set(ids)) != len(ids):
            raise LegCollision(f"duplicate leg ids on one tensor: {ids}")
        data = np.asarray(data, dtype=complex)
        shape = tuple(l.dim for l in legs)
        if data.size != int(np.prod(shape, dtype=np.int64)):
            raise DimensionMismatch(
                f"data size {data.size} does not match leg dims {shape}")
        data = data.reshape(shape)
        # canonical order: sort legs by id, permute axes accordingly
        order = sorted(range(len(legs)), key=lambda i: legs[i].id)
        self.legs = [legs[i] for i in order]
        self.data = np.ascontiguousarray(np.transpose(data, order))

    # -- conveniences -------------------------------------------------------

    @property
    def leg_ids(self):
        return [l.id for l in self.legs]

    def dim(self, leg_id: str) -> int:
        for l in self.legs:
            if l.id == leg_id:
                return l.dim
        raise KeyError(leg_id)

    def relabel(self, mapping: dict) -> "DenseTensor":
        """Return a copy with leg ids renamed via ``mapping`` (id -> new id)."""
        legs = [Leg(mapping.get(l.id, l.id), l.dim) for l in self.legs]
        return DenseTensor(legs, self.data)

    def scale(self, c) -> "DenseTensor":
        return DenseTensor(self.legs, self.data * c)

    def item(self) -> complex:
        if self.legs:
            raise DimensionMismatch("item() on a non-scalar tensor")
        return complex(self.data.item())

    def __repr__(self):
        return f"DenseTensor(legs={self.legs!r}, shape={self.data.shape})"


def scalar(value) -> DenseTensor:
    return DenseTensor([], np.asarray(value, dtype=complex))


def contract_pair(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Contract all shared legs of a and b (star operation).

    Returns a tensor over the symmetric difference of the leg sets; a full
    overlap yields a scalar tensor.
    """
    a_ids, b_ids = a.leg_ids, b.leg_ids
    shared = [i for i in a_ids if i in set(b_ids)]
    for s in shared:
        if a.dim(s) != b.dim(s):
            raise DimensionMismatch(
                f"leg {s!r}: dim {a.dim(s)} vs {b.dim(s)}")
    ax_a = [a_ids.index(s) for s in shared]
    ax_b = [b_ids.index(s) for s in shared]
    data = np.tensordot(a.data, b.data, axes=(ax_a, ax_b))
    legs = ([l for l in a.legs if l.id not in shared]
            + [l for l in b.legs if l.id not in shared])
    return DenseTensor(legs, data)


def inner(a: DenseTensor, b: DenseTensor) -> complex:
    """Bilinear full pairing over identical leg sets (no conjugation)."""
    if a.leg_ids != b.leg_ids:
        raise DimensionMismatch(
            f"inner needs identical leg sets: {a.leg_ids} vs {b.leg_ids}")
    for la, lb in zip(a.legs, b.legs):
        if la.dim != lb.dim:
            raise DimensionMismatch(f"leg {la.id!r}: dim {la.dim} vs {lb.dim}")
    return complex(np.sum(a.data * b.data))


# Greedy pair plans, keyed by network structure (see ``_plan``).  A plan
# depends only on the structure, never on values, so sharing it between
# callers is safe; the dict is emptied when it reaches _PLAN_CACHE_MAX.
_PLANS: dict = {}
_PLAN_CACHE_MAX = 4096


def _plan(struct, dims):
    """Greedy pair order for tensors with integer legs ``struct``.

    Repeatedly picks the pair whose result has the fewest entries,
    preferring pairs that share legs; ties go to the first pair in pool
    order.  The contracted pair leaves the pool and its result is
    appended.  Returns (steps, legs of the result), each step
    (i, j, axes of i, axes of j, result entries); axes are positions in
    the tensordot leg order (i's open legs, then j's).
    """
    pool = list(struct)
    steps = []
    while len(pool) > 1:
        best = None
        for i in range(len(pool)):
            set_i = set(pool[i])
            for j in range(i + 1, len(pool)):
                shared = set_i.intersection(pool[j])
                out_size = 1
                for x in pool[i] + pool[j]:
                    if x not in shared:
                        out_size *= dims[x]
                key = (0 if shared else 1, out_size)
                if best is None or key < best[0]:
                    best = (key, i, j, shared)
        (_, out_size), i, j, shared = best
        a, b = pool[i], pool[j]
        common = [x for x in a if x in shared]
        steps.append((i, j, tuple(a.index(x) for x in common),
                      tuple(b.index(x) for x in common), out_size))
        del pool[j], pool[i]
        pool.append(tuple(x for x in a + b if x not in shared))
    return tuple(steps), pool[0]


def contract_network(tensors: Iterable[DenseTensor],
                     size_cap: int | None = None) -> DenseTensor:
    """Contract a list of tensors pairwise under a greedy size heuristic.

    Repeatedly contracts the pair whose result has the fewest entries
    (preferring pairs that actually share legs); disconnected pieces end up
    combined by outer products at the end.  ``size_cap`` bounds the entry
    count of any intermediate.

    Leg ids are interned to integers in order of first appearance, so two
    networks of the same shape share one pair order, computed once and
    cached by structure (per-tensor integer legs plus dims).  The pairs are
    contracted with ``np.tensordot`` on the raw arrays; one DenseTensor is
    built at the end.  A leg id on more than two tensors is contracted by
    the first pair that shares it and stays open on the others.
    """
    pool = list(tensors)
    if not pool:
        return scalar(1.0)
    if len(pool) == 1:
        return pool[0]
    index, dims, ids = {}, [], []
    struct = []
    for t in pool:
        legs = []
        for l in t.legs:
            x = index.get(l.id)
            if x is None:
                x = index[l.id] = len(dims)
                dims.append(l.dim)
                ids.append(l.id)
            elif dims[x] != l.dim:
                raise DimensionMismatch(
                    f"leg {l.id!r}: dim {dims[x]} vs {l.dim}")
            legs.append(x)
        struct.append(tuple(legs))
    key = (tuple(struct), tuple(dims))
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= _PLAN_CACHE_MAX:
            _PLANS.clear()
        plan = _PLANS[key] = _plan(struct, dims)
    steps, out = plan
    arrays = [t.data for t in pool]
    for i, j, ax_i, ax_j, out_size in steps:
        if size_cap is not None and out_size > size_cap:
            raise TooLarge(
                f"intermediate with {out_size} entries exceeds cap {size_cap}")
        b = arrays.pop(j)
        a = arrays.pop(i)
        arrays.append(np.tensordot(a, b, axes=(ax_i, ax_j)) if ax_i
                      else np.multiply.outer(a, b))
    return DenseTensor([Leg(ids[x], dims[x]) for x in out], arrays[0])
