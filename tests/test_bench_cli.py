"""The python -m repro.bench command-line entry point."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig06", "table1", "ablation_heap_pruning"):
        assert name in out


def test_single_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "fast-path read" in out


def test_multiple_experiments(capsys):
    assert main(["table1", "fig06"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig06" in out


def test_unknown_experiment(capsys):
    assert main(["fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_no_args_prints_help(capsys):
    assert main([]) == 2


def test_registry_covers_all_paper_experiments():
    for name in (
        "table1", "table2", "table4",
        "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "fig16", "fig17a", "fig17b",
        "compile_costs",
    ):
        assert name in EXPERIMENTS


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_serving_rejects_fewer_than_one_replica(replicas, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serving", "--replication", replicas])
    assert exc.value.code == 2
    assert "replica count must be at least 1" in capsys.readouterr().err
