"""The bundled tables.

``published_means.json`` is edited by hand and is the only copy of its
transcription: the test below checks its layout and its corrections
list, and acceptance criterion 08 checks its means against the
published rank tables.  ``sthe_published.json`` is generated:
rebuilding it from ``scripts/build_sthe_data.py`` must reproduce the
committed file byte for byte."""

import build_sthe_data

from snailopt.data import load


def test_the_scripts_rebuild_the_committed_tables():
    assert build_sthe_data.render(build_sthe_data.build()).encode() == \
        build_sthe_data.OUT.read_bytes()


def test_published_means_list_each_problem_and_keep_their_corrections():
    data = load("published_means.json")
    algorithms, tables = data["algorithms"], data["tables"]
    # the report writes the tables in this order
    problems = {key: [f"F{i}" for i in range(1, 14)]
                for key in ("dim30", "dim100", "dim500", "dim1000")}
    problems["fixed"] = [f"F{i}" for i in range(14, 24)]
    assert list(tables) == list(problems)
    for key, table in tables.items():
        assert table["problems"] == problems[key], key
        assert [len(row) for row in table["means"]] == \
            [len(algorithms)] * len(problems[key]), key
    for c in data["corrections"]:
        if "rank_cell" in c:
            column = algorithms.index(c["rank_cell"].removesuffix(" mean rank"))
            cell = data["rank_tables"][c["table"]]["mean_ranks"][column]
        else:
            table = tables[c["table"]]
            row = table["means"][table["problems"].index(c["problem"])]
            cell = row[algorithms.index(c["algorithm"])]
        assert c["stored"] == cell, c
