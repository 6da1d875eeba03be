import json
import math

import numpy as np
import pytest

from bptn.cli import main
from bptn.models import IsingParams, ising_network
from bptn.network import Graph, TensorNetwork
from bptn.tensor import DenseTensor, Leg
from bptn.tnio import save_network


def run(argv):
    return main(argv)


def _body(path):
    """CSV text without the timestamp header line."""
    lines = path.read_text().splitlines()
    return "\n".join(l for l in lines if not l.startswith("# timestamp="))


def _rows(path):
    import csv

    lines = [l for l in path.read_text().splitlines()
             if not l.startswith("#")]
    return list(csv.DictReader(lines))


# --- happy paths ------------------------------------------------------------

def test_contract_exact(tmp_path):
    out = tmp_path / "z.csv"
    assert run(["contract-exact", "--generate", "ising:L=3,beta=0.3",
                "--out", str(out)]) == 0
    rows = _rows(out)
    got = float([r for r in rows if r["quantity"] == "log_abs"][0]["re"])
    from bptn.models import ising_exact_logZ

    assert abs(got - ising_exact_logZ(IsingParams(L=3, beta=0.3))) < 1e-9


def test_bp_subcommand(tmp_path):
    out = tmp_path / "bp.csv"
    assert run(["bp", "--generate", "ising:L=4,beta=0.3",
                "--out", str(out)]) == 0
    (row,) = _rows(out)
    assert row["converged"] == "True"
    assert float(row["residual"]) < 1e-10
    assert row["stability"] == "stable"
    assert abs(float(row["growth_ratio"]) - 3 * math.tanh(0.3)) < 1e-6


def test_loops_subcommand(tmp_path):
    out = tmp_path / "loops.csv"
    assert run(["loops", "--generate", "ising:L=4,beta=0.2", "-m", "6",
                "--out", str(out)]) == 0
    rows = _rows(out)
    assert [r["weight"] for r in rows] == ["4", "6"]
    c = -math.log(math.tanh(0.2))
    for r in rows:
        assert abs(float(r["c_estimate"]) - c) < 1e-9


def test_free_energy_with_reference(tmp_path):
    out = tmp_path / "fe.csv"
    assert run(["free-energy", "--generate", "ising:L=4,beta=0.2",
                "-m", "6", "-k", "4", "--reference", "exact",
                "--out", str(out)]) == 0
    rows = {r["method"]: r for r in _rows(out)}
    assert set(rows) == {"bp", "cluster", "cumulant", "region"}
    assert float(rows["cluster"]["abs_error"]) < float(
        rows["bp"]["abs_error"])


def test_expval_subcommand(tmp_path):
    out = tmp_path / "ev.csv"
    assert run(["expval", "--generate", "ising:L=3,beta=0.25,h=0.2",
                "--site", "1,1", "-m", "6", "-k", "4",
                "--reference", "exact", "--out", str(out)]) == 0
    rows = {r["method"]: r for r in _rows(out)}
    assert {"BP", "ratio(6)", "derivative(6)", "cumulant(6)",
            "region_sum(4)"} == set(rows)
    assert float(rows["derivative(6)"]["rel_error"]) < float(
        rows["BP"]["rel_error"])


def test_correlator_scan_and_fixed_pair(tmp_path, capsys):
    out = tmp_path / "corr.csv"
    assert run(["correlator", "--generate", "ising:L=4,beta=0.25,h=0.2",
                "--site", "0,0", "--distances", "3", "-m", "4",
                "--out", str(out)]) == 0
    rows = _rows(out)
    assert [r["distance"] for r in rows] == ["1", "2", "3"]
    # partner: first vertex in vertex order at each distance; m = 4 + d
    assert [r["site_b"] for r in rows] == ["0,1", "0,2", "1,2"]
    assert [r["truncation"] for r in rows] == ["5", "6", "7"]
    # the summary names the fit model and gives both fits' R^2
    err = capsys.readouterr().err
    assert "A*N_d*exp(-d/xi)" in err and err.count("R^2 = ") == 2
    out2 = tmp_path / "corr2.csv"
    assert run(["correlator", "--generate", "ising:L=4,beta=0.25,h=0.2",
                "--site", "0,0", "--site-b", "1,1", "-m", "4",
                "--reference", "exact", "--out", str(out2)]) == 0
    (row,) = _rows(out2)
    assert row["distance"] == "2"
    assert float(row["rel_error"]) < 0.2


def test_correlator_exact_reference_contracts_shared_site_once(
        tmp_path, monkeypatch):
    """A scan shares site a, so its decorated network is contracted once:
    Z and Z_a, then Z_b and Z_ab per pair (8 calls for 3 distances)."""
    import bptn.cli

    calls = []
    exact = bptn.cli.exact_contract

    def counting(tn):
        calls.append(tn)
        return exact(tn)

    monkeypatch.setattr(bptn.cli, "exact_contract", counting)
    out = tmp_path / "corr.csv"
    assert run(["correlator", "--generate", "ising:L=4,beta=0.25,h=0.2",
                "--site", "0,0", "--distances", "3", "-m", "1",
                "--reference", "exact", "--out", str(out)]) == 0
    rows = _rows(out)
    assert [r["distance"] for r in rows] == ["1", "2", "3"]
    assert all(r["reference_re"] for r in rows)
    assert len(calls) == 8


def test_regions_subcommand(tmp_path):
    out = tmp_path / "reg.csv"
    assert run(["regions", "--generate", "ising:L=4,beta=0.2", "-k", "4",
                "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 24
    assert all(r["counting_number"] == "1" for r in rows)


def test_scan_subcommand(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--generate", "ising:L=4,beta=0.2",
                "--sweep", "beta=0.15:0.3:3", "-m", "4",
                "--reference", "exact", "--out", str(out)]) == 0
    rows = _rows(out)
    assert [float(r["beta"]) for r in rows] == pytest.approx(
        [0.15, 0.225, 0.3])
    errs = [float(r["abs_error"]) for r in rows]
    assert errs[0] < errs[1] < errs[2]  # error grows toward criticality


def test_input_file_roundtrip(tmp_path):
    tn = ising_network(IsingParams(L=3, beta=0.3))
    path = tmp_path / "net.json"
    save_network(path, tn)
    out = tmp_path / "bp.csv"
    assert run(["bp", "--input", str(path), "--out", str(out)]) == 0
    (row,) = _rows(out)
    assert row["converged"] == "True"


# --- determinism ------------------------------------------------------------

def test_csv_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["expval", "--generate", "peps:rows=2,cols=2,perturbation=0.2",
            "--site", "0,0", "-m", "4", "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert _body(a) == _body(b)
    assert "# engine=bptn" in a.read_text()
    assert "# config=" in a.read_text()


# --- exit codes -------------------------------------------------------------

def test_exit_2_on_missing_file(tmp_path):
    assert run(["bp", "--input", str(tmp_path / "nope.json")]) == 2


def test_exit_2_on_conflicting_sources():
    assert run(["bp", "--generate", "ising:L=3,beta=0.2",
                "--input", "x.json"]) == 2


def test_exit_2_on_unknown_correlator_site():
    assert run(["correlator", "--generate", "ising:L=3,beta=0.2",
                "--site", "9,9"]) == 2


def test_exit_2_on_bad_generator():
    assert run(["bp", "--generate", "nosuch:x=1"]) == 2
    assert run(["bp", "--generate", "ising:L=banana"]) == 2


def test_exit_2_on_invalid_network_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bp", "--input", str(bad)]) == 2


def test_exit_3_on_numerical_collapse(tmp_path):
    g = Graph(["a", "b"], {"e": ("a", "b")})
    zero = DenseTensor([Leg("e", 2)], [0.0, 0.0])
    tn = TensorNetwork(g, {"e": 2}, {"a": zero, "b": zero})
    path = tmp_path / "zero.json"
    save_network(path, tn)
    assert run(["bp", "--input", str(path)]) == 3


def test_exit_4_on_size_cap(monkeypatch):
    # TooLarge from the contraction size cap maps to the budget exit code
    import bptn.cli
    from bptn.errors import TooLarge

    def boom(tn):
        raise TooLarge("intermediate exceeds cap")

    monkeypatch.setattr(bptn.cli, "exact_contract", boom)
    assert run(["contract-exact", "--generate", "loop:n=4"]) == 4


def test_exit_4_on_enumeration_budget():
    assert run(["loops", "--generate", "ising:L=6,beta=0.2",
                "-m", "14"]) == 4
