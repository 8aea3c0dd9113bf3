"""A malformed samples CSV is a DistributionError that names its line
(`core --samples` exits 1 with `error: ...`), not a traceback, a later,
misleading LP error or a row silently overwritten by a later one.  A
well-formed file whose per-agent counts differ from the config's is
refused before anything is written: certificates for the config's K_i
from a draw of another size would be unsound."""

import pytest

from coalisure.errors import DistributionError
from coalisure.sampling import samples_from_csv

from test_pipeline import run, write_config

HEADER = "agent_id,sample_index,xi1,xi2\n"
GOOD = ["1,1,0.5,0.25", "1,2,0.125,0.75", "2,1,0.5,0.5", "3,1,0.375,0.625"]


def csv_with(line: int, row: str) -> str:
    """The good rows with data row ``line`` (2-based, as the file counts) replaced."""
    rows = list(GOOD)
    rows[line - 2] = row
    return HEADER + "\n".join(rows) + "\n"


CASES = {
    "non-number-entry": (csv_with(3, "1,2,0.5,x"), "line 3"),
    "short-row": (csv_with(3, "1,2,0.5"), "line 3"),
    "one-field-row": (csv_with(3, "1"), "line 3"),
    "long-row": (csv_with(4, "2,1,0.5,0.5,0.5"), "line 4"),
    "agent-id-not-integer": (csv_with(5, "a,1,0.5,0.5"), "line 5"),
    "index-not-integer": (csv_with(2, "1,1.5,0.5,0.5"), "line 2"),
    "nan-entry": (csv_with(4, "2,1,nan,0.5"), "line 4"),
    "inf-entry": (csv_with(2, "1,1,0.5,-inf"), "line 2"),
    "repeated-agent-sample": (csv_with(3, "1,1,0.9,0.5"), "line 3"),
}


def test_good_rows_load():
    samples = samples_from_csv(HEADER + "\n".join(GOOD) + "\n")
    assert samples.counts == (2, 1, 1)


@pytest.mark.parametrize("name", CASES)
def test_bad_row_names_its_line(name):
    text, where = CASES[name]
    with pytest.raises(DistributionError, match=where):
        samples_from_csv(text)


@pytest.mark.parametrize("name", CASES)
def test_core_with_bad_samples_exits_1(tmp_path, name):
    text, where = CASES[name]
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    out = tmp_path / "out"
    r = run("core", "--config", write_config(tmp_path), "--out", out, "--samples", samples)
    assert r.exit_code == 1, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "error: samples CSV " + where in r.output
    assert not (out / "core.json").exists()


@pytest.mark.parametrize("command", ["certify", "zeta"])
def test_samples_with_other_counts_are_refused(tmp_path, command):
    drawn = tmp_path / "drawn"
    r = run("generate", "--config", write_config(tmp_path, counts=[12, 10, 12]), "--out", drawn)
    assert r.exit_code == 0, r.output
    samples = drawn / "samples.csv"
    out = tmp_path / "out"
    r = run(command, "--config", write_config(tmp_path), "--out", out, "--samples", samples)
    assert r.exit_code == 1, r.output
    assert f"error: {samples} holds 10 samples of agent 2, but the config's counts give 12" in r.output
    assert not list(out.iterdir())
