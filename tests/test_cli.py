import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from netobs import cli, min_deletion_cost, radius_core, solver
from netobs.montecarlo import sample_network


@pytest.fixture
def net3_file(tmp_path):
    net, _, _ = sample_network("line", 3, 7, 0)
    a = net.weights
    doc = {"n": 3, "sensors": [1],
           "edges": [[i + 1, j + 1, float(a[i, j])]
                     for i in range(3) for j in range(3) if a[i, j] != 0]}
    path = tmp_path / "net3.json"
    path.write_text(json.dumps(doc))
    return str(path), a


@pytest.fixture
def line4_file(tmp_path):
    net, _, _ = sample_network("line", 4, 11, 0)
    a = net.weights
    doc = {"n": 4, "sensors": [1],
           "edges": [[i + 1, j + 1, float(a[i, j])]
                     for i in range(4) for j in range(4) if a[i, j] != 0]}
    path = tmp_path / "net4.json"
    path.write_text(json.dumps(doc))
    return str(path), a


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, out, err = run(["radius", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert "bad network input" in err


def test_non_finite_weight_exit_1(net3_file, tmp_path, capsys):
    good = json.loads(Path(net3_file[0]).read_text())
    doc = json.loads(json.dumps(good))
    doc["edges"][0][2] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))  # written as the JSON token NaN
    assert "NaN" in bad.read_text()
    code, out, err = run(["radius", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bad network input: ")
    # malformed entries of an otherwise valid document fail at parse time
    # the same way; non-integral or boolean counts and indices are not
    # truncated, and n < 2 is caught before any array is built
    for edit in ({"edges": [5]}, {"edges": None}, {"constraint": [7]},
                 {"edges": [[1, 1, "heavy"]]}, {"n": 2.7}, {"n": True},
                 {"n": -1}, {"constraint": [[1, 2.9]]}, {"sensors": [1.5]},
                 {"edges": [[1, 2.0, 0.5], [True, 1, 0.5]]}):
        bad.write_text(json.dumps(dict(good, **edit)))
        code, out, err = run(["radius", str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("bad network input: ")


def test_unobservable_input_exit_2(tmp_path, capsys):
    doc = {"n": 2, "edges": [[1, 1, 0.5]], "sensors": [1]}
    f = tmp_path / "u.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(["radius", str(f)], capsys)
    assert code == 2
    assert "unobservable" in err


def test_bad_lambda_exit_1(net3_file, capsys):
    path, _ = net3_file
    code, _, err = run(["radius", path, "--lambda", "i"], capsys)
    assert code == 1
    assert "input error" in err


@pytest.mark.parametrize("lam", ["nan,0", "inf,1", "0,-inf"])
def test_non_finite_lambda_exit_1(line4_file, capsys, lam):
    # rejected at parse time, before any solve
    path, _ = line4_file
    code, out, err = run(["radius", path, "--lambda", lam], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and "finite" in err


@pytest.mark.parametrize("lam", [None, "0,1"])
@pytest.mark.parametrize("command", ["radius", "perturb"])
def test_unverified_answer_exit_3(line4_file, capsys, monkeypatch, command, lam):
    # an answer whose certificate does not verify is a solver failure: no
    # payload, whether it comes from the grid search or a fixed lambda
    verify = solver.verify_unobservability
    monkeypatch.setattr(solver, "verify_unobservability",
                        lambda *args: replace(verify(*args), verified=False))
    args = [command, line4_file[0]] + ([] if lam is None else ["--lambda", lam])
    code, out, err = run(args, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("solver failed: certificate not verified")


def test_usage_error_exit_1(capsys):
    code, _, err = run(["radius"], capsys)
    assert code == 1


@pytest.mark.parametrize("command", ["radius", "perturb", "montecarlo"])
def test_unknown_grid_exit_1(line4_file, capsys, monkeypatch, command):
    # rejected by the parser, before any network is loaded or sampled
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "load_network", no_work)
    monkeypatch.setattr(cli.mc, "estimate_expected_radius", no_work)
    if command == "montecarlo":
        args = [command, "--topology", "line", "--sizes", "5", "--trials", "3"]
    else:
        args = [command, line4_file[0]]
    code, out, err = run(args + ["--grid", "bogus"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and "--grid" in err


def test_unwritable_output_exit_1(net3_file, tmp_path, capsys, monkeypatch):
    # an output path in a missing directory: one error line, no traceback;
    # montecarlo fails before the ensemble runs
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.mc, "estimate_expected_radius", no_work)
    path, _ = net3_file
    missing = tmp_path / "no" / "such"
    for args in (["radius", path, "--lambda", "0,1", "-o", str(missing / "x.json")],
                 ["montecarlo", "--topology", "line", "--sizes", "5", "--trials", "3",
                  "--out-prefix", str(missing / "run")]):
        code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# radius and oracle agreement


def test_fixed_lambda_matches_oracle_subcommand(net3_file, capsys):
    path, _ = net3_file
    code, out, _ = run(["radius", path, "--lambda", "0,1", "--seed", "7"], capsys)
    assert code == 0
    solved = json.loads(out)
    code, out, _ = run(["oracle", path, "--kind", "line3", "--lambda", "0,1"],
                       capsys)
    assert code == 0
    reference = json.loads(out)
    assert abs(solved["delta_frobenius"] - reference["delta"]) < 1e-5
    assert solved["certificate"]["verified"]
    assert solved["converged"]
    assert solved["branch"] == "search"


def test_default_grid_finds_min_superdiagonal(line4_file, capsys):
    path, a = line4_file
    code, out, _ = run(["radius", path, "--grid", "default", "--seed", "5",
                        "--restarts", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    expected = min(a[i, i + 1] for i in range(3))
    assert payload["delta_frobenius"] == pytest.approx(expected, abs=1e-4)
    assert payload["search"]["grid"] == "default"


def test_radius_reports_an_edge_deletion_answer(tmp_path, capsys):
    # the CLI benchmark pool's 4-node line: with every default, its cheapest
    # single-edge cut is the answer, exact and certified, without a triple
    net, mask, _ = sample_network("line", 4, 2611, 0)
    a = net.weights
    path = tmp_path / "line4.json"
    path.write_text(json.dumps({"n": 4, "sensors": [1], "edges": [
        [i + 1, j + 1, float(a[i, j])] for i in range(4) for j in range(4) if a[i, j] != 0]}))
    code, out, _ = run(["radius", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    cost, (edge,) = min_deletion_cost(net, mask, 1)
    assert payload["branch"] == "edge-deletion"
    assert payload["delta_frobenius"] == cost
    assert payload["perturbation"][edge[0]][edge[1]] == -a[edge]
    assert np.count_nonzero(payload["perturbation"]) == 1
    assert payload["certificate"]["verified"] and payload["converged"]
    assert payload["search"]["evaluated"]
    for key in ("sigma", "phi_plus_mu", "residual", "cost_identity_rel"):
        assert payload[key] is None
    assert payload["iterations"] == 0
    code, _, err = run(["perturb", str(path)], capsys)
    assert code == 0 and "round-trip drift" in err


def test_oracle_auto_detects_topology(net3_file, capsys):
    path, a = net3_file
    code, out, _ = run(["oracle", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(min(a[0, 1], a[1, 2]), rel=1e-12)
    assert payload["branch"] == "edge-deletion"


# ---------------------------------------------------------------------------
# cold start


def test_import_and_radius_load_no_scipy(line4_file):
    # scipy is loaded only by QZ (generalized_spectrum, validate) and the
    # Gamma function (cut_bound*): importing the package and answering the
    # radius, perturb and oracle subcommands must not load it
    script = (
        "import contextlib, io, sys\n"
        "import netobs, netobs.cli\n"
        "path = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [netobs.cli.main(args) for args in (\n"
        "        ['radius', path], ['radius', path, '--lambda', '0.3,0.2'],\n"
        "        ['perturb', path], ['oracle', path])]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script, line4_file[0]], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0, 0] []"


# ---------------------------------------------------------------------------
# perturb round trip


def test_perturb_writes_verifiable_json(net3_file, tmp_path, capsys):
    path, _ = net3_file
    out_file = tmp_path / "pert.json"
    code, _, err = run(["perturb", path, "--lambda", "0,1", "--seed", "7",
                        "-o", str(out_file)], capsys)
    assert code == 0
    assert "round-trip drift" in err
    doc = json.loads(out_file.read_text())
    delta = np.array(doc["delta"])
    mask = np.array(doc["mask"])
    assert delta.shape == (3, 3)
    assert np.all(delta[mask == 0] == 0)
    assert doc["frob_cost"] == pytest.approx(float((delta ** 2).sum()), rel=1e-12)


@pytest.mark.parametrize("output", ["stdout", "file"])
def test_perturb_emits_nothing_when_its_audit_fails(net3_file, tmp_path, capsys,
                                                     monkeypatch, output):
    # the audit re-verifies the text about to be written; a drift above
    # 1e-12 there exits 3 before any of it is written
    real = cli.verify_unobservability

    def drifting(net, pert, lam):
        rep = real(net, pert, lam)
        return replace(rep, smin=rep.smin + 1e-9)

    monkeypatch.setattr(cli, "verify_unobservability", drifting)
    out_file = tmp_path / "pert.json"
    args = ["perturb", net3_file[0], "--lambda", "0,1", "--seed", "7"]
    code, out, err = run(args + (["-o", str(out_file)] if output == "file" else []), capsys)
    assert code == cli.EXIT_SOLVER == 3
    assert out == ""
    assert not out_file.exists()
    assert "round-trip drift" in err and "exceeds 1e-12" in err


# ---------------------------------------------------------------------------
# montecarlo subcommand


def test_montecarlo_csv_pair_byte_identical(tmp_path, capsys):
    args = ["montecarlo", "--topology", "line", "--sizes", "5", "--trials",
            "50", "--seed", "19"]
    code, _, _ = run(args + ["--out-prefix", str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run(args + ["--out-prefix", str(tmp_path / "b")], capsys)
    assert code == 0
    assert (tmp_path / "a_records.csv").read_bytes() == \
        (tmp_path / "b_records.csv").read_bytes()
    assert (tmp_path / "a_summary.csv").read_bytes() == \
        (tmp_path / "b_summary.csv").read_bytes()


def test_montecarlo_stdout_summary(capsys):
    code, out, _ = run(["montecarlo", "--topology", "line", "--sizes", "5",
                        "--trials", "30", "--seed", "23"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("topology,n,trials")
    assert lines[1].split(",")[0] == "line"


# ---------------------------------------------------------------------------
# seeding


def test_netobs_seed_env_matches_explicit(net3_file, capsys, monkeypatch):
    path, _ = net3_file
    monkeypatch.setenv("NETOBS_SEED", "99")
    code, out_env, _ = run(["radius", path, "--lambda", "0,1"], capsys)
    assert code == 0
    monkeypatch.delenv("NETOBS_SEED")
    code, out_flag, _ = run(["radius", path, "--lambda", "0,1", "--seed", "99"],
                            capsys)
    assert code == 0
    assert out_env == out_flag


def test_netobs_seed_env_invalid(net3_file, capsys, monkeypatch):
    path, _ = net3_file
    monkeypatch.setenv("NETOBS_SEED", "zzz")
    code, _, err = run(["radius", path, "--lambda", "0,1"], capsys)
    assert code == 1
    assert "NETOBS_SEED" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["radius", "perturb", "montecarlo", "validate"])
def test_negative_seed_is_an_input_error(command, source, tmp_path, capsys, monkeypatch):
    # rejected where the seed is resolved, before any network is read (the
    # file does not exist) and before any output file is created
    args = {
        "radius": ["radius", str(tmp_path / "missing.json")],
        "perturb": ["perturb", str(tmp_path / "missing.json")],
        "montecarlo": ["montecarlo", "--topology", "line", "--sizes", "5",
                       "--trials", "2", "--out-prefix", str(tmp_path / "run")],
        "validate": ["validate"],
    }[command]
    if source == "flag":
        args += ["--seed", "-1"]
    else:
        monkeypatch.setenv("NETOBS_SEED", "-1")
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and "seed" in err and "-1" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# validation suite


def test_validate_green_path(capsys):
    code, out, _ = run(["validate", "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,residual,threshold"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "pencil_zero_eigenvalue", "pencil_spectrum_real",
        "pencil_spectrum_pairing", "shift_relation",
        "weighting_quadratic_scaling", "reconstruction_cost_identity",
        "reconstruction_cost_bound", "oracle_agreement_3node",
        "real_lambda_route_equivalence", "topology_radius_agreement"]
    assert all(",pass," in ln for ln in lines[1:])


def test_validate_sign_flip_injection_fails(capsys, monkeypatch):
    # the minus coupling -sigma (y1 x_re' - y2 x_im') o V_bar in place of the
    # one the weightings imply: validate must catch it
    def minus_coupling(rp, t):
        m, n = rp.m, rp.n
        return -t.sigma * (np.outer(t.y[:n], t.x[:m])
                           - np.outer(t.y[n:], t.x[m:])) * rp.v_bar

    monkeypatch.setattr(radius_core, "_delta_bar", minus_coupling)
    code, out, err = run(["validate", "--seed", "3"], capsys)
    assert code == 4
    assert "reconstruction_cost_identity,FAIL" in out
    assert "validation failed" in err


def test_radius_with_two_sensors_verifies(tmp_path, capsys):
    # sensors at nodes 4 and 2 of a 5-node line: the perturbation lives in
    # the columns of nodes 1, 3 and 5, and the certificate holds
    net, _, _ = sample_network("line", 5, 11, 0)
    a = net.weights
    doc = {"n": 5, "sensors": [4, 2],
           "edges": [[i + 1, j + 1, float(a[i, j])]
                     for i in range(5) for j in range(5) if a[i, j] != 0]}
    path = tmp_path / "two_sensors.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["radius", str(path), "--grid", "topo"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] and payload["certificate"]["verified"]
    delta = np.array(payload["perturbation"])
    assert not delta[:, [1, 3]].any() and delta.any()
