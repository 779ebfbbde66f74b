"""``scripts/bench_record.py`` on hand-made runs: the pair comparison a speed claim
rests on (medians, base quartiles, win counts), the line it prints per metric, and
children that print no result."""

import sys

import pytest

from bench_record import compare, pair_lines, record_run

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def side(wall, evals):
    """One side's runs as ``paired`` collects them: (fingerprint, result)."""
    return [("fp", {"metrics": {"wall_s": {"value": w}, "evals_per_s": {"value": e}}})
            for w, e in zip(wall, evals)]


def test_compare_counts_wins_in_each_metrics_better_direction():
    base_wall, tree_wall = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 1.0]
    base_evals, tree_evals = [10.0, 20.0, 30.0, 40.0, 50.0], [11.0, 20.0, 29.0, 50.0, 49.0]
    got = compare({"base": side(base_wall, base_evals),
                   "tree": side(tree_wall, tree_evals)}, END_TO_END)
    assert got == {
        # lower is better: pairs 1, 4 and 5 are wins, the tie in pair 2 is not
        "wall_s": {"unit": "s", "better": "lower", "base": base_wall, "tree": tree_wall,
                   "base_median": 3.0, "tree_median": 2.0,
                   "base_quartiles": [2.0, 4.0],  # inclusive; exclusive is 1.5, 4.5
                   "tree_wins": 3},
        # higher is better: pairs 1 and 4 are wins, the tie in pair 2 is not
        "evals_per_s": {"unit": "1/s", "better": "higher",
                        "base": base_evals, "tree": tree_evals,
                        "base_median": 30.0, "tree_median": 29.0,
                        "base_quartiles": [20.0, 40.0], "tree_wins": 2},
    }


@pytest.mark.parametrize("code, status", [  # perfbench's exit on a failed launch; an early death
    ('print("provenance {}"); raise SystemExit("snailopt run failed: boom")', 1),
    ('import sys; sys.stderr.write("no scipy: boom"); raise SystemExit(3)', 3)],
    ids=["exits-after-provenance", "dies-before-provenance"])
def test_a_run_that_printed_no_result_names_its_status_and_stderr(code, status):
    with pytest.raises(RuntimeError, match=rf"^w --trace 1: no result \(exit status {status}\):\n.*boom$"):
        record_run([sys.executable, "-c", code], "w", 1, 1)


def test_pair_lines_give_change_wins_quartile_flag_and_fingerprints():
    metrics = compare({"base": side([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 20.0, 30.0, 40.0, 50.0]),
                       "tree": side([0.5, 1.0, 1.5, 1.0, 2.5], [11.0, 20.0, 29.0, 50.0, 49.0])},
                      END_TO_END)
    block = {"w": {"pairs": 5, "fingerprints_match": True, "metrics": metrics},
             "v": {"pairs": 5, "fingerprints_match": False, "metrics": metrics}}
    assert pair_lines(block) == [
        # lower is better: median 3 -> 1 lies below the base quartiles [2, 4]
        "w wall_s: 3 -> 1 s (-66.7%), tree wins 5/5, outside the base quartiles (better), "
        "fingerprints match",
        "w evals_per_s: 30 -> 29 1/s (-3.3%), tree wins 2/5, fingerprints match",
        "v wall_s: 3 -> 1 s (-66.7%), tree wins 5/5, outside the base quartiles (better), "
        "FINGERPRINTS DIFFER",
        "v evals_per_s: 30 -> 29 1/s (-3.3%), tree wins 2/5, FINGERPRINTS DIFFER"]
    slower = compare({"base": side([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5),
                      "tree": side([5.0, 6.0, 7.0, 8.0, 9.0], [1.0] * 5)}, END_TO_END)
    assert pair_lines({"w": {"pairs": 5, "fingerprints_match": True, "metrics": slower}})[0] == (
        "w wall_s: 3 -> 7 s (+133.3%), tree wins 0/5, outside the base quartiles (WORSE), "
        "fingerprints match")
