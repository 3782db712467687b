"""Byte-for-byte CLI outputs on the bundled inputs.

Each case runs one command in a directory holding copies of its input
profiles (so file names in the output carry no absolute path) and compares
stdout, and any file the command writes, with the committed files under
`fixtures/golden/`. The exit code is part of each case. The `dirty.iotprof`
input exercises every diagnostic code, so `validate_dirty` pins their
text, line, column and order.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from edgelca.cli import main
from edgelca.defaults import DATA_DIR_ENV, example_profile_path

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

#: name -> (arguments, exit code, file the command writes or None)
CASES = {
    "estimate_csv": (["estimate", "use_cases.iotprof", "--format", "csv"], 0, None),
    "estimate_jsonl": (["estimate", "use_cases.iotprof", "--format", "jsonl"], 0, None),
    "estimate_table": (["estimate", "use_cases.iotprof", "--format", "table"], 0, None),
    "validate": (["validate", "use_cases.iotprof"], 0, None),
    "validate_dirty": (["validate", "dirty.iotprof"], 1, None),
    "sensitivity": (["sensitivity", "--series-out", "series.csv"], 0, "series.csv"),
    "project": (["project"], 0, None),
    "project_psi_alpha": (["project", "--psi", "2", "--alpha", "0.3"], 0, None),
    "pathway": (["pathway"], 0, None),
}


def run_case(name, workdir):
    """Run one case with `workdir` as the current directory.

    Returns (exit code, stdout bytes, bytes of the written file or None).
    """
    args, _, written = CASES[name]
    (workdir / "use_cases.iotprof").write_bytes(
        example_profile_path("use_cases").read_bytes()
    )
    (workdir / "dirty.iotprof").write_bytes((FIXTURES / "dirty.iotprof").read_bytes())
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        mp.delenv(DATA_DIR_ENV, raising=False)
        result = CliRunner().invoke(main, args)
    out_file = (workdir / written).read_bytes() if written else None
    return result.exit_code, result.stdout_bytes, out_file


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    exit_code, stdout, out_file = run_case(name, tmp_path)
    assert exit_code == CASES[name][1]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    written = CASES[name][2]
    if written:
        assert out_file == (GOLDEN / f"{name}.{written}").read_bytes()
