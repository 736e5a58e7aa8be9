"""Smoke tests of the figure scripts: each runs end to end on a tiny input,
so a change to the result fields they read cannot break them silently."""
import csv

from conftest import load_script as load


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fig1_convergence_runs(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert load("fig1_convergence").main(["--trials", "2", "--out", str(out)]) == 0
    assert len(rows(out)) > 1
    assert f"wrote {out}" in capsys.readouterr().out


def test_fig3_expected_radius_runs(tmp_path, capsys):
    prefix = tmp_path / "fig3"
    code = load("fig3_expected_radius").main(
        ["--trials", "2", "--sizes", "5", "--out-prefix", str(prefix)])
    assert code == 0
    for topo in ("line", "star"):
        assert len(rows(f"{prefix}_{topo}_records.csv")) == 3
        assert len(rows(f"{prefix}_{topo}_summary.csv")) == 2
    assert "line n=  5" in capsys.readouterr().out


def test_fingerprint_runs_on_a_tiny_subset(capsys):
    fingerprint = load("fingerprint")
    assert fingerprint.main(["--limit", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in lines] == list(fingerprint.SETS)
    digests = dict(lines)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    # the first of the 88 graphs is the first file of the CLI pool
    assert digests["graphs"] == digests["cli"]
    # a second run gives the same digest
    assert fingerprint.main(["--only", "chain3", "--limit", "1"]) == 0
    assert capsys.readouterr().out.split() == ["chain3", digests["chain3"]]
