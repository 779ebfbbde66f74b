"""Test-side reader for the CSV tables ``snailopt report`` writes."""

import csv


def read_table_csv(path) -> list[dict]:
    """Read back a table written by ``snailopt.harness.write_table_csv``.

    Values are restored as float / int / bool / str by literal parsing,
    so a write-read cycle reproduces the original rows exactly.
    """
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for k, v in row.items():
                if v in ("True", "False"):
                    parsed[k] = v == "True"
                else:
                    try:
                        parsed[k] = int(v)
                    except ValueError:
                        try:
                            parsed[k] = float(v)
                        except ValueError:
                            parsed[k] = v
            out.append(parsed)
    return out
