"""TN interchange file (JSON) load/save, plus message serialization.

Format:
    {"vertices": [ids],
     "edges": [{"id", "u", "v", "dim"}],
     "tensors": {vertex: {"legs": [leg ids], "dims": [ints],
                          "re": [floats], "im": [floats]}},
     "physical": {vertex: dim},
     "messages": {"v->w": {"re": [...], "im": [...]}}}   # optional

Data is row-major in the listed leg order.  Floats are serialized with
shortest round-trip repr, so save/load is bit-exact.  The loader validates
every invariant and rejects on the first violation with a path-qualified
message.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .network import Graph, TensorNetwork
from .tensor import DenseTensor


def network_to_dict(tn: TensorNetwork, messages=None) -> dict:
    doc = {
        "vertices": list(tn.graph.vertices),
        "edges": [{"id": e, "u": u, "v": v, "dim": tn.bond_dims[e]}
                  for e, (u, v) in sorted(tn.graph.edges.items())],
        "tensors": {},
    }
    for v in tn.graph.vertices:
        t = tn.tensors[v]
        doc["tensors"][v] = {
            "legs": t.leg_ids,
            "dims": list(t.data.shape),
            "re": np.real(t.data).ravel().tolist(),
            "im": np.imag(t.data).ravel().tolist(),
        }
    if tn.phys_dims:
        doc["physical"] = dict(tn.phys_dims)
    if messages is not None:
        if messages.plan.tn is not tn:
            raise InputError("the messages are of another network")
        doc["messages"] = {
            f"{v}->{w}": {"re": messages.data[d][r].real.tolist(),
                          "im": messages.data[d][r].imag.tolist()}
            for (v, w), (d, r) in sorted(messages.plan.slot.items())}
    return doc


def save_network(path, tn: TensorNetwork, messages=None):
    doc = network_to_dict(tn, messages)  # refusals come before the file
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def _fail(path, msg):
    raise InputError(f"{path}: {msg}")


def _json(path, value, kind):
    """``value``, refused unless it is a ``kind`` (list or dict)."""
    if not isinstance(value, kind):
        _fail(path, f"expected a {kind.__name__}, got {value!r:.40}")
    return value


def _dim(path, value) -> int:
    """``value``, refused unless it is an integer >= 1: a dimension."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        _fail(path, f"dim must be an integer >= 1, got {value!r}")
    return value


def _data(path, rec) -> np.ndarray:
    """re + 1j * im of ``rec``, both lists of numbers of one length."""
    for part in ("re", "im"):
        value = _json(path, rec, dict).get(part)
        if not isinstance(value, list) or not all(
                type(x) in (int, float) for x in value):
            _fail(path, f"{part} is not a list of numbers, got {value!r:.40}")
    if len(rec["re"]) != len(rec["im"]):
        _fail(path, "re and im length mismatch")
    re, im = (np.array(rec[part], dtype=float) for part in ("re", "im"))
    return re + 1j * im


def network_from_dict(doc: dict) -> TensorNetwork:
    _json("document", doc, dict)
    for key in ("vertices", "edges", "tensors"):
        if key not in doc:
            _fail(key, "missing required section")
    vertices = [str(v) for v in _json("vertices", doc["vertices"], list)]
    if len(set(vertices)) != len(vertices):
        _fail("vertices", "duplicate vertex ids")
    edges, bond_dims = {}, {}
    for i, rec in enumerate(_json("edges", doc["edges"], list)):
        _json(f"edges[{i}]", rec, dict)
        for key in ("id", "u", "v", "dim"):
            if key not in rec:
                _fail(f"edges[{i}]", f"missing field {key!r}")
        e = str(rec["id"])
        if e in edges:
            _fail(f"edges[{i}]", f"duplicate edge id {e!r}")
        edges[e] = (str(rec["u"]), str(rec["v"]))
        bond_dims[e] = _dim(f"edges[{i}]", rec["dim"])
    try:
        graph = Graph(vertices, edges)
    except Exception as exc:
        _fail("edges", str(exc))
    phys = {str(v): _dim(f"physical/{v}", d) for v, d in
            _json("physical", doc.get("physical", {}), dict).items()}
    tensors = {}
    records = _json("tensors", doc["tensors"], dict)
    for v in vertices:
        if v not in records:
            _fail(f"tensors/{v}", "missing tensor")
        rec = _json(f"tensors/{v}", records[v], dict)
        legs = [str(x) for x in _json(f"tensors/{v}/legs",
                                      rec.get("legs", []), list)]
        dims = [_dim(f"tensors/{v}/dims[{j}]", x) for j, x in enumerate(
            _json(f"tensors/{v}/dims", rec.get("dims", []), list))]
        if len(legs) != len(dims):
            _fail(f"tensors/{v}", "legs and dims length mismatch")
        data = _data(f"tensors/{v}", rec)
        want = int(np.prod(dims)) if dims else 1
        if data.size != want:
            _fail(f"tensors/{v}",
                  f"data length {data.size} != prod(dims) {want}")
        try:
            tensors[v] = DenseTensor(legs, data.reshape(dims))
        except Exception as exc:
            _fail(f"tensors/{v}", str(exc))
    try:
        tn = TensorNetwork(graph, tensors)
    except Exception as exc:
        _fail("network", str(exc))
    # the declared dimensions must be the tensors' own
    for i, (e, d) in enumerate(bond_dims.items()):
        if d != tn.bond_dims[e]:
            _fail(f"edges[{i}]", f"dim {d} != {tn.bond_dims[e]}, the "
                  "dim of its tensors' legs")
    for v in sorted(phys.keys() | tn.phys_dims.keys()):
        if phys.get(v) != tn.phys_dims.get(v):
            _fail(f"physical/{v}", f"declared dim {phys.get(v)} != "
                  f"{tn.phys_dims.get(v)}, the dim of its physical leg")
    return tn


def _read(path, parse, *args):
    """``parse(doc, *args)`` of the JSON file ``path``; refusals name it."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            _fail(path, f"not valid JSON ({exc})")
    try:
        return parse(doc, *args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_network(path) -> TensorNetwork:
    return _read(path, network_from_dict)


def _messages_from_dict(doc, tn: TensorNetwork):
    """The optional message section as a MessageSet, or None."""
    from .bp import MessageSet

    if "messages" not in _json("document", doc, dict):
        return None
    msgs = {}
    for key, rec in _json("messages", doc["messages"], dict).items():
        where = f"messages/{key}"
        if "->" not in key:
            _fail(where, "key must be 'v->w'")
        v, w = key.split("->", 1)
        e = tn.graph.edge_between(v, w)
        if e is None:
            _fail(where, "no such edge")
        data = _data(where, rec)
        if data.size != tn.bond_dims[e]:
            _fail(where, "length does not match bond dim")
        msgs[(v, w)] = DenseTensor([e], data)
    return MessageSet(tn, msgs)


def load_messages(path, tn: TensorNetwork):
    """Load the optional message section; returns a MessageSet or None."""
    return _read(path, _messages_from_dict, tn)
