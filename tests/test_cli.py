import cmath
import gc
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import bptn.cli
from bptn.cli import main
from bptn.errors import BudgetError, InputError, NumericalError
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         random_peps)
from bptn.network import Graph, TensorNetwork, exact_contract, phys_leg
from bptn.tensor import DenseTensor
from bptn.tnio import network_to_dict, save_network


def run(argv):
    return main(argv)


def _run_process(argv, **env):
    """The completed ``python -m bptn.cli`` process of ``argv``, with
    ``env`` added to the environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "bptn.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=300)


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


@pytest.mark.parametrize("spec, seed", [
    ("peps:rows=3,cols=3,D=2", "3"),
    ("peps:rows=5,cols=5,D=2,perturbation=0.25", "11")])
def test_bp_phase_of_a_positive_norm_is_zero(tmp_path, spec, seed):
    """A PEPS norm network has real positive Z, and Im log Z_BP is
    roundoff about 0 (negative on the 5x5 network); the phase is its
    remainder in (-pi, pi], so it reads near 0, not near 2 pi."""
    out = tmp_path / "bp.csv"
    assert run(["bp", "--generate", spec, "--seed", seed,
                "--out", str(out)]) == 0
    (row,) = _rows(out)
    assert abs(float(row["phase"])) < 1e-12


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


@pytest.mark.parametrize("L", [4, 10])
def test_free_energy_reference_of_an_ising_generator(tmp_path, L):
    """An Ising generator's exact reference is the transfer-matrix log Z:
    at L = 10, past what exact contraction holds, it is read as it is; at
    L = 4 it agrees with exact contraction to 1e-12 relative."""
    p = IsingParams(L=L, beta=0.2)
    out = tmp_path / "fe.csv"
    assert run(["free-energy", "--generate", f"ising:L={L},beta=0.2",
                "-m", "4", "--reference", "exact", "--out", str(out)]) == 0
    refs = {float(r["f_ref_re"]) for r in _rows(out)}
    assert refs == {-ising_exact_logZ(p)}
    if L == 4:
        want = -cmath.log(exact_contract(ising_network(p))).real
        assert abs(refs.pop() - want) <= 1e-12 * abs(want)


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


def test_correlator_ratio_failure_is_reported(tmp_path, capsys):
    """At h = 0 the BP expectation is 0, so the ratio form is undefined at
    every pair: its column reads nan and stderr names each pair and the
    error, apart from the fit summary."""
    out = tmp_path / "corr.csv"
    assert run(["correlator", "--generate", "ising:L=4,beta=0.2",
                "--site", "0,0", "-m", "2", "--out", str(out)]) == 0
    rows = _rows(out)
    assert [r["ratio_re"] for r in rows] == ["nan"] * 3
    assert all(math.isfinite(float(r["derivative_re"])) for r in rows)
    lines = capsys.readouterr().err.splitlines()
    notes = [l for l in lines if l.startswith("ratio_re = nan")]
    assert notes == [f"ratio_re = nan for sites '0,0' and {b!r}: "
                     "NumericalError: BP expectation at region '0,0' below "
                     "floor; ratio normalization undefined"
                     for b in ("0,1", "0,2", "1,2")]
    assert not any("R^2 = " in l for l in notes)
    assert sum("R^2 = " in l for l in lines) == 1


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


def test_estimators_share_one_string_enumeration(tmp_path, monkeypatch):
    """expval enumerates strings once for all its series estimators.  A
    correlator pair enumerates them once for the derivative and the ratio
    form."""
    import bptn.observables

    calls = []
    enumerate_strings = bptn.observables.enumerate_strings

    def counting(*args, **kw):
        calls.append(args)
        return enumerate_strings(*args, **kw)

    monkeypatch.setattr(bptn.observables, "enumerate_strings", counting)
    assert run(["expval", "--generate", "ising:L=3,beta=0.25,h=0.2",
                "--site", "1,1", "-m", "4", "-k", "2",
                "--out", str(tmp_path / "ev.csv")]) == 0
    assert len(calls) == 1
    calls.clear()
    assert run(["correlator", "--generate", "ising:L=3,beta=0.25,h=0.2",
                "--site", "0,0", "--distances", "2", "-m", "2",
                "--out", str(tmp_path / "corr.csv")]) == 0
    assert len(_rows(tmp_path / "corr.csv")) == 2
    assert len(calls) == 2


def test_correlator_pair_weighs_its_strings_in_one_call(tmp_path,
                                                         monkeypatch):
    """A correlator pair weighs its own strings and both prefactors' (the
    strings that end on one site alone) in one bulk call, which the
    derivative form then reads: one ``excitation_weight`` call per pair
    (three each when every prefactor was weighed on its own), and the
    same 144 weights in all."""
    import bptn.observables

    jobs = []
    weigh = bptn.observables.excitation_weight

    def counting(messages, pairs):
        jobs.append(len(pairs))
        return weigh(messages, pairs)

    monkeypatch.setattr(bptn.observables, "excitation_weight", counting)
    assert run(["correlator", "--generate", "ising:L=3,beta=0.25,h=0.2",
                "--site", "0,0", "--distances", "2", "-m", "2",
                "--out", str(tmp_path / "corr.csv")]) == 0
    assert len(_rows(tmp_path / "corr.csv")) == 2
    assert jobs == [24, 120]


def test_free_energy_computes_each_local_factor_once(tmp_path, monkeypatch):
    """Every layer reads z_v from the one MessageSet cache of dressed
    tensors: on the benchmark's 5x5 torus each of the 25 z_v is built
    once, a site tensor and its 4 incoming messages contracted to a
    scalar in bulk, and no pair is contracted on its own."""
    import bptn.bp
    import bptn.tensor

    built, pairs = [], []
    bulk = bptn.bp.contract_many

    def counting(pools):
        out = bulk(pools)
        built.extend(len(pool) for pool, (ids, _) in zip(pools, out)
                     if not ids)
        return out

    def pair(a, b, contract_pair=bptn.tensor.contract_pair):
        pairs.append(1)
        return contract_pair(a, b)

    monkeypatch.setattr(bptn.bp, "contract_many", counting)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bptn" and hasattr(module, "contract_pair"):
            monkeypatch.setattr(module, "contract_pair", pair)
    assert run(["free-energy", "--generate", "ising:L=5,beta=0.2", "-m", "6",
                "-k", "6", "--out", str(tmp_path / "fe.csv")]) == 0
    assert built == [5] * 25
    assert not pairs


def test_regions_subcommand(tmp_path):
    out = tmp_path / "reg.csv"
    assert run(["regions", "--generate", "ising:L=4,beta=0.2", "-k", "4",
                "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 24
    assert all(r["counting_number"] == "1" for r in rows)


def test_regions_k0_lists_no_regions(tmp_path):
    """``-k 0`` means no regions, as in ``free-energy``; without ``-k`` the
    poset is the k = 4 one."""
    out = tmp_path / "reg.csv"
    argv = ["regions", "--generate", "ising:L=4,beta=0.2", "--out", str(out)]
    assert run(argv + ["-k", "0"]) == 0
    assert _rows(out) == []
    assert run(argv) == 0
    assert len(_rows(out)) == 24


def test_expval_k0_runs_no_region_sum(tmp_path):
    """``-k 0`` drops the region-sum row; without ``-k`` it runs at
    k = 1, and the other rows are the same either way."""
    out = tmp_path / "ev.csv"
    argv = ["expval", "--generate", "ising:L=3,beta=0.25,h=0.2", "--site",
            "1,1", "-m", "4", "--out", str(out)]
    assert run(argv + ["-k", "0"]) == 0
    without = _rows(out)
    assert [r["method"] for r in without] == [
        "BP", "ratio(4)", "derivative(4)", "cumulant(4)"]
    assert run(argv) == 0
    default = _rows(out)
    assert default[:4] == without
    assert [r["method"] for r in default[4:]] == ["region_sum(1)"]


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


def test_scan_reference_on_a_cylinder_past_the_spin_sum(tmp_path):
    """L=5 is past the spin-sum cutoff: the cylinder's exact reference
    comes from the transfer matrix with open rows."""
    out = tmp_path / "scan.csv"
    assert run(["scan", "--generate", "ising:L=5,beta=0.2,topology=cylinder",
                "--sweep", "beta=0.1:0.2:2", "-m", "4",
                "--reference", "exact", "--out", str(out)]) == 0
    rows = _rows(out)
    assert [float(r["beta"]) for r in rows] == [0.1, 0.2]
    errs = [float(r["abs_error"]) for r in rows]
    assert 0 < errs[0] < errs[1] < 0.01


def test_scan_sweeps_the_lattice_size(tmp_path):
    """``L`` sweeps as the generator reads it, an integer; each row is the
    one-point scan of its own lattice."""
    out = tmp_path / "scan.csv"
    assert run(["scan", "--generate", "ising:L=3,beta=0.2",
                "--sweep", "L=3:5:3", "-m", "4", "--reference", "exact",
                "--out", str(out)]) == 0
    rows = _rows(out)
    assert [r["L"] for r in rows] == ["3", "4", "5"]
    for r in rows:
        one = tmp_path / f"L{r['L']}.csv"
        assert run(["scan", "--generate", f"ising:L={r['L']},beta=0.2",
                    "--sweep", "beta=0.2:0.2:1", "-m", "4",
                    "--reference", "exact", "--out", str(one)]) == 0
        (want,) = _rows(one)
        assert [r[k] for k in ("c_even", "c_odd", "f_m_re", "abs_error")] \
            == [want[k] for k in ("c_even", "c_odd", "f_m_re", "abs_error")]


def test_scan_refuses_a_lattice_size_that_is_not_an_integer(
        tmp_path, capsys, monkeypatch):
    """A grid point L = 3.5 is refused with one stderr line and exit 2
    before BP runs for any point of the grid."""
    import bptn.bp

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(bptn.bp, "_sweep", no_sweep)
    out = tmp_path / "scan.csv"
    assert run(["scan", "--generate", "ising:L=3,beta=0.2",
                "--sweep", "L=3:4:3", "-m", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: sweep spec 'L=3:4:3': L = 3.5 is not an integer\n")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["tree:n=1", "peps:rows=1,cols=1"])
def test_bp_on_edgeless_network(tmp_path, spec):
    """One vertex and no edge: BP converges at once, and the stability
    probe has no message to perturb."""
    out = tmp_path / "bp.csv"
    assert run(["bp", "--generate", spec, "--out", str(out)]) == 0
    (row,) = _rows(out)
    assert (row["converged"], row["stability"], row["growth_ratio"]) == (
        "True", "inconclusive", "nan")


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


@pytest.mark.parametrize("argv", [
    ["expval", "--generate", "peps:rows=2,cols=3,D=2,perturbation=0.25",
     "--site", "0,1", "-m", "4", "-k", "4"],
    ["correlator", "--generate", "ising:L=3,beta=0.25,h=0.2",
     "--site", "0,0", "--site-b", "1,1", "-m", "2"],
    ["free-energy", "--generate", "ising:L=4,beta=0.2", "-m", "4",
     "-k", "4"],
    ["regions", "--generate", "ising:L=4,beta=0.2", "-k", "6"],
], ids=["expval", "correlator", "free-energy", "regions"])
def test_csv_body_independent_of_hash_seed(argv):
    """Products over vertex and region sets run in sorted order, so the
    body does not depend on the per-process string hash salt; nor do the
    counting numbers, whose member bits follow set iteration order."""
    bodies = set()
    for seed in range(4):
        proc = _run_process(argv, PYTHONHASHSEED=str(seed))
        assert proc.returncode == 0, proc.stderr
        bodies.add("\n".join(l for l in proc.stdout.splitlines()
                             if not l.startswith("# timestamp=")))
    assert len(bodies) == 1


@pytest.mark.parametrize("argv, config", [
    (["contract-exact", "--generate", "ising:L=3,beta=0.3"],
     "298a84ab56710f50"),
    (["regions", "--generate", "ising:L=4,beta=0.2", "-k", "4"],
     "7ebb7b1202ff057d"),
    # a valid seed passes the check for a negative one unchanged
    (["bp", "--generate", "ising:L=3,beta=0.2", "--seed", "3"],
     "95335fdaae9aca32"),
])
def test_config_fingerprint_survives_option_removal(tmp_path, argv, config):
    """Options a subcommand never read are gone from it; their former
    defaults stay in the fingerprint, so the ``# config=`` line of an
    accepted argv does not move."""
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert f"# config={config}\n" in out.read_text()


# --- exit codes -------------------------------------------------------------

_GEN = ["--generate", "ising:L=3,beta=0.3"]


@pytest.mark.parametrize("argv", [
    ["contract-exact", *_GEN, "-m", "4"],
    ["contract-exact", *_GEN, "-k", "2"],
    ["contract-exact", *_GEN, "--tol", "1e-9"],
    ["contract-exact", *_GEN, "--damping", "0.1"],
    ["contract-exact", *_GEN, "--reference", "exact"],
    ["bp", *_GEN, "-m", "4"],
    ["bp", *_GEN, "-k", "2"],
    ["bp", *_GEN, "--reference", "exact"],
    ["loops", *_GEN, "-k", "2"],
    ["loops", *_GEN, "--reference", "exact"],
    ["regions", *_GEN, "-m", "4"],
    ["regions", *_GEN, "--tol", "1e-9"],
    ["regions", *_GEN, "--damping", "0.1"],
    ["regions", *_GEN, "--reference", "exact"],
    ["correlator", *_GEN, "-k", "2"],
    ["scan", *_GEN, "--sweep", "beta=0.1:0.2:2", "-k", "2"],
    ["scan", *_GEN, "--sweep", "beta=0.1:0.2:2", "--input", "x.json"],
    ["scan", "--sweep", "beta=0.1:0.2:2"],
    ["free-energy", *_GEN, "--reference", "ref.json"],
])
def test_exit_2_on_option_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _parsed(parse, argv, capsys):
    """(exit code, stdout, stderr) of ``parse(argv)``; 0 when it returns."""
    try:
        parse(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", [s[0] for s in bptn.cli._SUBCOMMANDS])
def test_subcommand_parser_matches_full_parser(name, capsys, monkeypatch):
    """``main`` builds only the parser of the subcommand its first
    argument names.  Its help, an unknown option, an option without its
    value and (for ``scan``, the one subcommand with required options) a
    missing required option give the same stdout, stderr and exit code as
    the parser of every subcommand."""
    def fail(args):
        raise AssertionError("a subcommand ran on a refused command line")

    monkeypatch.setattr(bptn.cli, "_check_counts", fail)
    argvs = [[name, "--help"], [name, "--no-such-option"], [name, "--seed"]]
    if name == "scan":
        argvs.append([name, "--seed", "1"])
    for argv in argvs:
        full = _parsed(bptn.cli.build_parser().parse_args, argv, capsys)
        assert full[0] == (0 if "--help" in argv else 2), argv
        assert full[1] or full[2], argv
        assert _parsed(bptn.cli.main, argv, capsys) == full, argv


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["nope"],
                                  ["--seed", "1", "bp"]])
def test_full_parser_when_no_subcommand_comes_first(argv, capsys):
    """Without a subcommand as the first argument ``main`` parses with
    every subcommand's parser: help, version and refusals as before."""
    full = _parsed(bptn.cli.build_parser().parse_args, argv, capsys)
    assert _parsed(bptn.cli.main, argv, capsys) == full
    assert full[0] in (0, 2)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bptn", "contract-exact", "--generate",
                                      "loop:n=4"])
    assert main() == 0
    assert "partition_function" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["free-energy", "--generate", "ising:L=3,beta=0.3", "-m", "4", "-k", "4"],
    ["expval", "--generate", "ising:L=3,beta=0.3,h=0.1", "-m", "4"],
])
def test_clusters_are_enumerated_once_per_run(argv, monkeypatch, capsys):
    """``free-energy`` sums its clusters and cumulants over one cluster
    list, and ``expval``'s estimators filter one anchored enumeration."""
    import bptn.clusters
    import bptn.cumulants
    import bptn.observables

    calls = []
    enumerate_clusters = bptn.clusters.enumerate_clusters

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return enumerate_clusters(*args, **kwargs)

    for module in (bptn.clusters, bptn.cumulants, bptn.observables):
        monkeypatch.setattr(module, "enumerate_clusters", counting,
                            raising=False)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["contract-exact", "--generate", "ising:L=3,beta=200"],
    # BP and the expansions are finite here, but Z overflows; read from a
    # file, the network has no transfer-matrix reference
    ["free-energy", "--input", "ising:L=4,beta=30", "-m", "2", "-k", "0",
     "--reference", "exact"],
    ["expval", "--generate", "ising:L=4,beta=30,h=0.1", "-m", "2",
     "--reference", "exact"],
    ["correlator", "--generate", "ising:L=4,beta=30,h=0.1", "-m", "2",
     "--distances", "1", "--reference", "exact"],
])
def test_exit_3_on_exact_contraction_that_is_not_finite(argv, tmp_path,
                                                         capsys):
    """Not a ``nan`` or ``inf`` reference in the CSV: exit 3, with no
    numpy warning before the error line.  An ``--input`` names the
    generator spec of the network saved to the file read."""
    if "--input" in argv:
        k = argv.index("--input") + 1
        path = tmp_path / "net.json"
        save_network(path, bptn.cli.generate(argv[k], 0).tn)
        argv = argv[:k] + [str(path)] + argv[k + 1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numerical error: exact contraction is not "
                              "finite")


def test_exit_2_on_missing_file(tmp_path):
    assert run(["bp", "--input", str(tmp_path / "nope.json")]) == 2


def test_exit_2_on_conflicting_sources():
    assert run(["bp", "--generate", "ising:L=3,beta=0.2",
                "--input", "x.json"]) == 2


def test_exit_2_on_unknown_correlator_site():
    assert run(["correlator", "--generate", "ising:L=3,beta=0.2",
                "--site", "9,9"]) == 2
    # no pair to evaluate
    assert run(["correlator", "--generate", "ising:L=3,beta=0.2,h=0.1",
                "--distances", "0", "-m", "2"]) == 2


def test_exit_2_on_correlator_pair_on_one_site(tmp_path, capsys,
                                               monkeypatch):
    """A pair on one site is refused before BP runs."""
    import bptn.bp

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(bptn.bp, "_sweep", no_sweep)
    out = tmp_path / "out.csv"
    assert run(["correlator", "--generate", "ising:L=4,beta=0.2,h=0.2",
                "--site", "0,0", "--site-b", "0,0", "-m", "2",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "share vertices" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_exit_2_on_correlator_site_b_not_in_the_network(tmp_path, capsys,
                                                       monkeypatch):
    """A --site-b that is not a vertex is refused before BP runs."""
    import bptn.bp

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(bptn.bp, "_sweep", no_sweep)
    out = tmp_path / "out.csv"
    assert run(["correlator", "--generate", "ising:L=3,beta=0.2,h=0.1",
                "--site", "0,0", "--site-b", "9,9", "-m", "2",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: site '9,9' not in the network\n"
    assert captured.out == ""
    assert not out.exists()


def test_exit_2_on_correlator_pair_in_two_components(tmp_path, capsys,
                                                     monkeypatch):
    """A pair in two connected components of a PEPS file is refused before
    BP runs: no string joins them."""
    import bptn.bp

    g = Graph(["A0", "A1", "B0", "B1"],
              {"a": ("A0", "A1"), "b": ("B0", "B1")})
    rng = np.random.default_rng(0)
    tensors = {}
    for v in g.vertices:
        data = 0.2 * rng.standard_normal((2, 2))
        data[0, 0] += 1.0
        tensors[v] = DenseTensor([e for e, _ in g.incident(v)]
                                 + [phys_leg(v)], data)
    path = tmp_path / "two.json"
    save_network(path, TensorNetwork(g, tensors))

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(bptn.bp, "_sweep", no_sweep)
    out = tmp_path / "out.csv"
    assert run(["correlator", "--input", str(path), "--site", "A0",
                "--site-b", "B0", "-m", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --site-b 'B0' is not connected to site "
                            "'A0': no string joins them\n")
    assert captured.out == ""
    assert not out.exists()


def test_exit_2_on_bad_generator():
    assert run(["bp", "--generate", "nosuch:x=1"]) == 2
    assert run(["bp", "--generate", "ising:L=banana"]) == 2
    # a sweep of zero steps
    assert run(["scan", "--generate", "ising:L=3,beta=0.2",
                "--sweep", "beta=0.1:0.2:0", "-m", "4"]) == 2


@pytest.mark.parametrize("argv", [
    ["bp", "--generate", "ising:L=3,beta=nan"],
    ["bp", "--generate", "ising:L=3,beta=inf"],
    ["bp", "--generate", "ising:L=3,h=nan"],
    ["bp", "--generate", "ising:L=3,h=inf"],
    ["bp", "--generate", "ising:L=3,h=-inf"],
    ["expval", "--generate", "peps:rows=2,cols=2,perturbation=nan", "-m", "4"],
    ["expval", "--generate", "peps:rows=2,cols=2,perturbation=inf", "-m", "4"],
    ["scan", "--generate", "ising:L=3,beta=0.2", "--sweep", "beta=nan:0.3:2",
     "-m", "4"],
    ["regions", "--generate", "ising:L=3,beta=nan"],
    # finite parameters whose site tensors overflow
    ["bp", "--generate", "ising:L=3,beta=400"],
    ["free-energy", "--generate", "ising:L=3,beta=400", "-m", "4"],
    ["contract-exact", "--generate", "ising:L=3,beta=400"],
    # e^(beta h) overflows a float
    ["bp", "--generate", "ising:L=3,beta=1,h=1000"],
    # the double tensors of the norm network overflow
    ["bp", "--generate", "peps:rows=2,cols=2,perturbation=1e300"],
])
def test_exit_2_on_non_finite_generator_parameter(argv, tmp_path, capsys,
                                                  monkeypatch):
    """A non-finite beta, h or perturbation, or one whose site tensors
    overflow, is refused as a bad spec before BP runs, with no CSV written
    and no numpy warning."""
    import bptn.bp

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(bptn.bp, "_sweep", no_sweep)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad generator spec ")
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    # a generator spec with nothing in it, or a zero dimension
    (["bp", "--generate", "peps:rows=2,cols=2,D=0"],
     "bad generator spec 'peps:rows=2,cols=2,D=0': rows, cols, D and "
     "phys_dim >= 1 required"),
    (["bp", "--generate", "peps:rows=2,cols=2,phys_dim=0"],
     "bad generator spec 'peps:rows=2,cols=2,phys_dim=0': rows, cols, D "
     "and phys_dim >= 1 required"),
    (["bp", "--generate", "peps:rows=0,cols=2"],
     "bad generator spec 'peps:rows=0,cols=2': rows, cols, D and "
     "phys_dim >= 1 required"),
    (["bp", "--generate", "tree:n=0"],
     "bad generator spec 'tree:n=0': n >= 1 and D >= 1 required"),
    (["bp", "--generate", "tree:n=3,D=0"],
     "bad generator spec 'tree:n=3,D=0': n >= 1 and D >= 1 required"),
    # a negative seed, before any generator or the stability probe sees it
    (["bp", "--generate", "ising:L=3,beta=0.2", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["bp", "--generate", "peps:rows=2,cols=2", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["bp", "--generate", "tree:n=3", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    # a sweep bound np.linspace would overflow on
    (["scan", "--generate", "ising:L=4,beta=0.2", "--sweep", "h=0:1e400:2",
      "-m", "2"],
     "bad generator spec 'ising:L=4,beta=0.2,h=inf': finite beta and h "
     "required"),
])
def test_exit_2_with_one_line_on_degenerate_input(argv, line):
    """Exit 2 with the refusal as the one stderr line: no traceback, no
    numpy warning, no CSV."""
    proc = _run_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv, key", [
    (["bp", "--generate", "ising:L=3,betta=0.9"], "'betta'"),
    # the sweep key goes into the generator spec of every row
    (["scan", "--generate", "ising:L=3,beta=0.2", "--sweep", "bta=0.1:0.3:2",
      "-m", "4"], "'bta'"),
    (["bp", "--generate", "tree:n=5,d=3"], "'d'"),
])
def test_exit_2_on_unknown_generator_key(argv, key, capsys):
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: unknown ") and key in out.err


@pytest.mark.parametrize("flag, value", [
    ("--damping", "1"), ("--damping", "1.5"), ("--damping", "-0.5"),
    ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf")])
def test_exit_2_on_impossible_bp_settings(flag, value, capsys, monkeypatch):
    """Settings under which BP cannot converge are refused before the
    first sweep, not after the sweep cap."""
    import bptn.bp

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(bptn.bp, "_sweep", no_sweep)
    assert run(["bp", "--generate", "ising:L=3,beta=0.2", flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {flag} must be")


@pytest.mark.parametrize("argv, flag", [
    (["loops", "-m", "-1"], "--max-weight/-m"),
    (["free-energy", "-m", "-3", "-k", "-2"], "--max-weight/-m"),
    (["free-energy", "-m", "4", "-k", "-2"], "--region-size/-k"),
    (["expval", "-m", "-2"], "--max-weight/-m"),
    (["expval", "-k", "-1"], "--region-size/-k"),
    (["correlator", "-m", "-5"], "--max-weight/-m"),
    (["regions", "-k", "-1"], "--region-size/-k"),
])
def test_exit_2_on_negative_truncation(argv, flag, capsys):
    """A negative truncation is refused with the option's name, and no CSV
    is written; 0 stays valid."""
    assert run([*argv, "--generate", "ising:L=3,beta=0.2,h=0.1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {flag} must be >= 0, got -")
    zeroed = [("0" if a.startswith("-") and a[1:].isdigit() else a)
              for a in argv]
    assert run([*zeroed, "--generate", "ising:L=3,beta=0.2,h=0.1"]) == 0


def test_exit_2_on_invalid_network_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bp", "--input", str(bad)]) == 2


def _set(path, value):
    """A change to an interchange document: set the entry at ``path``."""
    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return change


@pytest.mark.parametrize("change, where", [
    (_set(["vertices"], 5), "vertices"),
    (_set(["tensors", "0,0"], [1.0, 2.0]), "tensors/0,0"),
    (_set(["tensors", "0,0", "re", 0], "x"), "tensors/0,0"),
    (_set(["edges", 0, "dim"], "two"), "edges[0]"),
    (_set(["physical"], {"0,0": "x"}), "physical/0,0"),
    (_set(["tensors", "0,0", "dims", 0], -2), "tensors/0,0/dims[0]"),
    (_set(["edges", 0, "dim"], 2.5), "edges[0]"),
], ids=["vertices_number", "tensor_not_object", "re_string", "dim_string",
        "physical_string", "dims_negative", "dim_fraction"])
def test_exit_2_on_malformed_network_file(tmp_path, capsys, change, where):
    """A malformed interchange file exits 2 with a path-qualified message
    and no CSV, not with a traceback."""
    doc = network_to_dict(ising_network(IsingParams(L=3, beta=0.2)))
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["contract-exact", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {path}: {where}: ")


@pytest.mark.parametrize("change, where, message", [
    (_set(["edges", 0, "dim"], 3), "edges[0]",
     "dim 3 != 2, the dim of its tensors' legs"),
    (_set(["physical", "0,1"], 3), "physical/0,1",
     "declared dim 3 != 2, the dim of its physical leg"),
    (lambda doc: doc["physical"].pop("0,1"), "physical/0,1",
     "declared dim None != 2, the dim of its physical leg"),
    (_set(["physical", "x"], 2), "physical/x",
     "declared dim 2 != None, the dim of its physical leg"),
], ids=["edge_dim", "physical_dim", "physical_missing", "physical_unknown"])
def test_exit_2_on_declared_dim_that_is_not_the_tensors(tmp_path, capsys,
                                                        change, where,
                                                        message):
    """A file declares each edge's dim and each physical dim beside the
    tensors that carry them; a declaration the tensors do not bear out
    exits 2 with a path-qualified message."""
    doc = network_to_dict(random_peps(2, 2, seed=0))
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["contract-exact", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {path}: {where}: {message}\n")


def test_exit_3_on_numerical_collapse(tmp_path):
    g = Graph(["a", "b"], {"e": ("a", "b")})
    zero = DenseTensor(["e"], [0.0, 0.0])
    tn = TensorNetwork(g, {"a": zero, "b": zero})
    path = tmp_path / "zero.json"
    save_network(path, tn)
    assert run(["bp", "--input", str(path)]) == 3


def test_exit_4_on_size_cap(monkeypatch):
    # BudgetError from the contraction size cap maps to the budget exit code
    import bptn.cli

    def boom(tn):
        raise BudgetError("intermediate exceeds cap")

    monkeypatch.setattr(bptn.cli, "exact_contract", boom)
    assert run(["contract-exact", "--generate", "loop:n=4"]) == 4


@pytest.mark.parametrize("error, code, prefix", [
    (InputError, 2, "error"),
    (NumericalError, 3, "numerical error"),
    (BudgetError, 4, "budget exceeded"),
    (OverflowError, 3, "numerical error"),
    (OSError, 2, "error"),
])
def test_each_error_class_has_one_exit_code(error, code, prefix,
                                            monkeypatch, capsys):
    """``main`` maps each error class to its exit code and prints one
    stderr line, the code's prefix and the message, and no CSV."""
    def fail(tn):
        raise error("raised by the test")

    monkeypatch.setattr(bptn.cli, "exact_contract", fail)
    assert run(["contract-exact", "--generate", "loop:n=4"]) == code
    assert capsys.readouterr() == ("", f"{prefix}: raised by the test\n")


def test_exit_4_on_enumeration_budget(monkeypatch, capsys):
    """The string grower stops at its budget with exit 4; the budget is
    patched down from the shipped 10**7 to 10**4, which ``loops -m 14`` on
    6x6 passes within a second."""
    import bptn.loops

    assert bptn.loops.DEFAULT_ENUM_BUDGET == 10 ** 7
    monkeypatch.setattr(bptn.loops, "DEFAULT_ENUM_BUDGET", 10 ** 4)
    assert run(["loops", "--generate", "ising:L=6,beta=0.2",
                "-m", "14"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "edge-subset enumeration exceeded budget" in out.err


# --- the cyclic collector --------------------------------------------------

def _cyclic_garbage(argv):
    """The objects in the reference cycles one ``main`` call leaves, kept by
    DEBUG_SAVEALL with the collector off for the call."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_run_leaves_no_cyclic_garbage_that_grows_with_the_work(tmp_path):
    """The engine makes no reference cycles: a larger expansion leaves the
    same cyclic garbage (the parser's) as a smaller one, and none of it
    is a bptn function."""
    argv = ["free-energy", "--generate", "ising:L=4,beta=0.2", "-k", "4",
            "--out", str(tmp_path / "f.csv")]
    _cyclic_garbage(argv + ["-m", "6"])  # first-call imports and caches
    small = _cyclic_garbage(argv + ["-m", "6"])
    large = _cyclic_garbage(argv + ["-m", "8"])
    assert len(small) == len(large)
    assert not [f for f in small + large if isinstance(f, types.FunctionType)
                and f.__module__.startswith("bptn")]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, error, code", [
    (["contract-exact", "--generate", "loop:n=4"], None, 0),
    (["bp", "--generate", "ising:L=3,beta=nan"], None, 2),
    (["contract-exact", "--generate", "loop:n=4"], NumericalError, 3),
    (["contract-exact", "--generate", "loop:n=4"], BudgetError, 4),
    (["contract-exact", "--no-such-option"], None, SystemExit),
])
def test_main_pauses_and_restores_the_collector(argv, error, code, enabled,
                                                monkeypatch, capsys):
    """``main`` runs the command with the collector off and leaves it as
    the caller had it, on every exit code and on argparse's exit."""
    seen = []
    check = bptn.cli._check_counts

    def record(args):
        seen.append(gc.isenabled())
        check(args)

    def fail(tn):
        raise error("raised by the test")

    monkeypatch.setattr(bptn.cli, "_check_counts", record)
    if error:
        monkeypatch.setattr(bptn.cli, "exact_contract", fail)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
            assert seen == []
        else:
            assert main(argv) == code
            assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
