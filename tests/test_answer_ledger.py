"""The answer ledger (scripts/answer_ledger.py): every answer on the
benchmark pools and the 88 graphs against the committed one, instance by
instance. C3's and C7's answers are compared in test_acceptance.py, from its
experiments."""
import numpy as np
import pytest

from netobs import load_network, min_deletion_cost
from conftest import load_script

ledger = load_script("answer_ledger")


def test_compare_lists_every_moved_instance():
    want = {"a": ledger.entry(1.0, 0.5, True, None, "search"),
            "b": ledger.entry(2.0, 0.5, True, None, "search"),
            "c": ledger.entry(3.0, 1j, True, None, "search", oracle=3.0),
            "d": ledger.entry(np.inf, None, False, "no candidate converged", "search")}
    got = dict(want)
    assert ledger.compare(want, got) == []
    got["a"] = ledger.entry(1.0 + 5e-10, 0.7, True, None, "search")  # within 1e-9
    assert ledger.compare(want, got) == []
    got["b"] = ledger.entry(2.0 * (1 + 3e-9), 0.5, True, None, "edge-deletion")
    got["c"] = ledger.entry(3.0, 1j, True, None, "search", oracle=3.1)
    got["d"] = ledger.entry(4.0, 0.5, True, None, "search")
    got["e"] = want.pop("a")
    moved = ledger.compare(want, got)
    assert [line.split(":")[0] for line in moved] == ["a", "b", "c", "d", "e"]
    assert "branch 'search' -> 'edge-deletion'" in moved[1] and "radius" in moved[1]
    assert "oracle 3.0 -> 3.1" in moved[2]
    assert "converged False -> True" in moved[3]


@pytest.mark.parametrize("name", ["ensemble", "chain3", "cli"])
def test_pool_answers_match_the_ledger(tmp_path, name):
    moved = ledger.compare(ledger.read()[name], ledger.build(name, tmp_path))
    assert not moved, "\n".join(moved)


@pytest.mark.slow
def test_graph_answers_match_the_ledger_and_stay_at_or_below_the_cheapest_cut(tmp_path):
    got = ledger.build("graphs", tmp_path)
    assert len(got) == 88
    moved = ledger.compare(ledger.read()["graphs"], got)
    assert not moved, "\n".join(moved)
    for path in tmp_path.rglob("*.json"):
        net, mask = load_network(path)
        cut = min_deletion_cost(net, mask, 1)[0]
        e = got[path.stem]
        assert e["converged"] and e["radius"] <= cut, path.stem
        assert (e["radius"] == cut) if e["branch"] == "edge-deletion" else (e["radius"] < cut), \
            path.stem
