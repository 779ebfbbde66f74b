"""``scripts/bench_record.py`` on hand-made runs: the pair comparison a speed claim
rests on (medians, base quartiles, win counts, exact paired p-values, the claim
rule's flags), the line it prints per metric, and children that print no result;
and the p-values and flags of the recorded ``pairs`` blocks."""

import copy
import json
import sys

import pytest

from bench_record import ROOT, claim_flags, compare, exact_tests, pair_lines, record_run

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


def test_claim_flags_on_hand_made_pairs():
    # base wall_s [1, 5]: median 3, quartiles [2, 4], so an interquartile
    # distance of 2 against a bound of 0.25 * 3
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    cases = {  # tree wall_s -> (gain_shown, worse_beyond_bound, unresolved)
        # median 1: won 5/5, but beats 3 by exactly the distance, and the
        # tree's slowest run (2.5) is slower than the base's fastest (1)
        (0.5, 1.0, 1.5, 1.0, 2.5): (False, False, True),
        # every tree run beats every base run: the spread decides nothing
        (0.1, 0.2, 0.3, 0.4, 0.5): (True, False, False),
        # won 4/5 of the pairs: short of nine tenths
        (0.1, 0.2, 0.3, 0.4, 5.5): (False, False, True),
        # 7 against 3 is worse by more than 0.25 * 3
        (5.0, 6.0, 7.0, 8.0, 9.0): (False, True, True),
    }
    for tree, want in cases.items():
        block = claim_flags({"w": {"pairs": 5, "metrics": compare(
            {"base": side(base, [1.0] * 5), "tree": side(tree, [1.0] * 5)}, END_TO_END)}},
            END_TO_END)
        wall = block["w"]["metrics"]["wall_s"]
        assert (wall["gain_shown"], wall["worse_beyond_bound"], wall["unresolved"]) == want, tree
        # equal sides: no gain, no loss, and a spread of nothing
        assert not any(block["w"]["metrics"]["evals_per_s"][k]
                       for k in ("gain_shown", "worse_beyond_bound", "unresolved"))


def test_pair_lines_give_change_wins_flags_and_fingerprints():
    metrics = compare({"base": side([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 20.0, 30.0, 40.0, 50.0]),
                       "tree": side([0.1, 0.2, 0.3, 0.4, 0.5], [11.0, 20.0, 29.0, 50.0, 49.0])},
                      END_TO_END)
    block = claim_flags(exact_tests({
        "w": {"pairs": 5, "fingerprints_match": True, "metrics": metrics},
        "v": {"pairs": 5, "fingerprints_match": False, "metrics": copy.deepcopy(metrics)}}),
        END_TO_END)
    # five pairs all one way: exact p = 2 / 2^5; Holm over the block's four metrics
    # gives 4 * 0.0625 to the first and raises the second 0.0625 * 3 to it
    assert pair_lines(block) == [
        "w wall_s: 3 -> 0.3 s (-90.0%), tree wins 5/5, p 0.062 (Holm 0.25), "
        "gain shown, fingerprints match",
        # base quartiles [20, 40] span more than 0.25 * 30
        "w evals_per_s: 30 -> 29 1/s (-3.3%), tree wins 2/5, p 1 (Holm 1), "
        "unresolved, fingerprints match",
        "v wall_s: 3 -> 0.3 s (-90.0%), tree wins 5/5, p 0.062 (Holm 0.25), "
        "gain shown, FINGERPRINTS DIFFER",
        "v evals_per_s: 30 -> 29 1/s (-3.3%), tree wins 2/5, p 1 (Holm 1), "
        "unresolved, FINGERPRINTS DIFFER"]
    slower = compare({"base": side([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5),
                      "tree": side([5.0, 6.0, 7.0, 8.0, 9.0], [1.0] * 5)}, END_TO_END)
    block = claim_flags(exact_tests({"w": {"pairs": 5, "fingerprints_match": True,
                                           "metrics": slower}}), END_TO_END)
    assert pair_lines(block) == [
        "w wall_s: 3 -> 7 s (+133.3%), tree wins 0/5, p 0.062 (Holm 0.12), "
        "WORSE beyond bound, unresolved, fingerprints match",
        "w evals_per_s: 1 -> 1 1/s (+0.0%), tree wins 0/5, p 1 (Holm 1), fingerprints match"]


def test_claim_flags_on_every_recorded_pairs_block():
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    flagged = {"gain_shown": set(), "worse_beyond_bound": set(), "unresolved": set()}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        pairs = json.loads(path.read_text()).get("pairs")
        for workload, w in claim_flags(pairs or {}, bounds).items():
            for name, m in w["metrics"].items():
                for flag, where in flagged.items():
                    if m[flag]:
                        where.add((path.stem, workload, name))
    assert flagged["gain_shown"] == {
        *(("BENCH_17", w, m) for w in ("d500", "sthe_cases", "catalog_report")
          for m in ("setup_s", "report_s")),
        ("BENCH_17", "sthe_cases", "peak_rss_mb"), ("BENCH_17", "catalog_report", "peak_rss_mb"),
        ("BENCH_18", "d500", "peak_rss_mb"),
        ("BENCH_20", "catalog_report", "evals_per_s"),
        ("BENCH_34", "sthe_cases", "wall_s"), ("BENCH_34", "sthe_cases", "evals_per_s")}
    assert flagged["unresolved"] == {
        ("BENCH_18", "d500", "wall_s"), ("BENCH_18", "d500", "evals_per_s"),
        ("BENCH_18", "d500", "report_s"),
        ("BENCH_34", "catalog_report", "setup_s"), ("BENCH_34", "catalog_report", "report_s")}
    assert flagged["worse_beyond_bound"] == set()


def test_exact_tests_on_a_recorded_pairs_block():
    pairs = exact_tests(json.loads((ROOT / "BENCH_34.json").read_text())["pairs"])
    claimed = pairs["sthe_cases"]["metrics"]["evals_per_s"]
    assert claimed["tree_wins"] == 9
    assert claimed["p"] == pytest.approx(0.0039, abs=5e-5)  # 4 / 2^10, exact
    # Holm over the block's 18 metrics: the smallest p (this one, tied with
    # wall_s) is multiplied by 18
    assert claimed["p_holm"] == pytest.approx(18 * claimed["p"])
    assert pairs["catalog_report"]["metrics"]["evals_per_s"]["p"] == 1.0
    metrics = [m for w in pairs.values() for m in w["metrics"].values()]
    assert all(m["p"] <= m["p_holm"] <= 1.0 for m in metrics)
