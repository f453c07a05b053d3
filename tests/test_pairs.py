"""The paired-run script's ordering and argument logic
(``benchmarks/pairs.py``); nothing here runs a benchmark."""

import pathlib

import pytest

from benchmarks import pairs


def test_sides_alternate_which_goes_first():
    order = pairs.schedule(4)
    assert order == [
        (0, "base"), (0, "new"), (1, "new"), (1, "base"),
        (2, "base"), (2, "new"), (3, "new"), (3, "base"),
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_every_pair_runs_each_side_once(n):
    order = pairs.schedule(n)
    assert len(order) == 2 * n
    for side in pairs.SIDES:
        assert sorted(i for i, s in order if s == side) == list(range(n))


def test_defaults_and_required_workload():
    args = pairs.parse_args(["--workload", "full_update"])
    assert args.workload == ["full_update"]
    assert (args.n, args.base, args.seed, args.out_dir) == (10, "HEAD", 0, None)
    with pytest.raises(SystemExit):
        pairs.parse_args([])
    with pytest.raises(SystemExit):
        pairs.parse_args(["--workload", "no_such_workload"])


def test_several_workloads_each_named_once():
    args = pairs.parse_args(["--workload", "serve_steady", "coupled_train_serve"])
    assert args.workload == ["serve_steady", "coupled_train_serve"]
    with pytest.raises(SystemExit):
        pairs.parse_args(["--workload", "serve_steady", "no_such_workload"])
    with pytest.raises(SystemExit):
        pairs.parse_args(["--workload", "serve_steady", "serve_steady"])


def test_workloads_run_their_pairs_in_turn():
    order = pairs.plan(["full_update", "serve_steady"], 2)
    assert order == [
        ("full_update", i, side) for i, side in pairs.schedule(2)
    ] + [("serve_steady", i, side) for i, side in pairs.schedule(2)]


def test_at_least_one_pair():
    with pytest.raises(SystemExit):
        pairs.parse_args(["--workload", "full_update", "--n", "0"])


def test_a_run_is_untraced_and_writes_its_own_file():
    tree, out = pathlib.Path("/t"), pathlib.Path("/o/new_3.json")
    cmd = pairs.run_command(tree, "serve_steady", 1, out)
    assert cmd[1] == str(tree / "benchmarks" / "e2e" / "run.py")
    flags = dict(zip(cmd[2::2], cmd[3::2]))
    assert flags == {
        "--workload": "serve_steady", "--seed": "1", "--trace": "0",
        "--out": str(out),
    }


def test_pair_wins_follow_the_metric_direction():
    base, new = [10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 10.0, 8.0]
    assert pairs.pair_wins(base, new, "lower") == (2, 1)
    assert pairs.pair_wins(base, new, "higher") == (1, 1)
