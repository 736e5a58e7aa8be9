import json

import numpy as np
import pytest

from netobs import cli, radius_core
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
    good = json.loads(open(net3_file[0]).read())
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


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_bad_tol_exit_1(line4_file, capsys, tol):
    path, _ = line4_file
    code, out, err = run(["radius", path, "--lambda", "0,1", "--tol", tol], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "conv_tol" in err


def test_usage_error_exit_1(capsys):
    code, _, err = run(["radius"], capsys)
    assert code == 1


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


def test_default_grid_finds_min_superdiagonal(line4_file, capsys):
    path, a = line4_file
    code, out, _ = run(["radius", path, "--grid", "default", "--seed", "5",
                        "--restarts", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    expected = min(a[i, i + 1] for i in range(3))
    assert payload["delta_frobenius"] == pytest.approx(expected, abs=1e-4)
    assert payload["search"]["grid"] == "default"


def test_oracle_auto_detects_topology(net3_file, capsys):
    path, a = net3_file
    code, out, _ = run(["oracle", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(min(a[0, 1], a[1, 2]), rel=1e-12)
    assert payload["branch"] == "edge-deletion"


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
