"""Job entrypoints: argument plumbing (no Spark submission here)."""
import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"


def load(name: str):
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(JOBS))


class TestCommon:
    def test_parser_defaults(self):
        common = load("_common")
        args = common.base_parser("x").parse_args([])
        assert args.sf == 0.1
        assert args.eta == 5
        assert args.delta == 0.0
        assert args.names == 50

    def test_parser_overrides(self):
        common = load("_common")
        args = common.base_parser("x").parse_args(
            ["--sf", "0.02", "--eta", "3", "--delta", "4.5", "--names", "10"]
        )
        assert (args.sf, args.eta, args.delta, args.names) == (0.02, 3, 4.5, 10)


class TestTablesCli:
    def test_parser_defaults(self):
        args = load("tables").parser().parse_args(["3"])
        assert (args.sf, args.seed, args.eta, args.delta, args.names) == (0.1, 7, 5, 0.0, 50)

    @pytest.mark.parametrize("table", [2, 3, 4, 5, 6])
    def test_table_id_parses(self, table):
        args = load("tables").parser().parse_args([str(table), "--sf", "0.01"])
        assert (args.table, args.sf) == (table, 0.01)

    @pytest.mark.parametrize("table", ["1", "7", "III"])
    def test_unknown_table_rejected(self, table):
        with pytest.raises(SystemExit):
            load("tables").parser().parse_args([table])


@pytest.mark.parametrize("job", ["run_iuad", "tables"])
def test_job_module_loads_and_has_main(job):
    mod = load(job)
    assert callable(mod.main)
