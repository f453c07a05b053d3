"""The benchmark trajectory (``benchmarks/trajectory.py``) is append-only
and ends where the committed ``BENCH_e2e.json`` is."""

from benchmarks import trajectory


def test_last_rows_equal_the_committed_bench_file():
    committed = trajectory.rows(trajectory.read_bench(), "", "")
    last = trajectory.last_by_workload(trajectory.read())
    assert committed
    for row in committed:
        assert row["workload"] in last, row["workload"]
        newest = last[row["workload"]]
        assert newest["seed"] == row["seed"]
        assert newest["metrics"] == row["metrics"]


def test_every_row_is_labelled_and_sourced():
    for row in trajectory.read():
        assert row["label"] and row["source"]
        assert row["metrics"]["update_sim_s_p50"] > 0


def test_append_keeps_earlier_rows(tmp_path):
    path = tmp_path / "trajectory.jsonl"
    doc = {
        "results": [
            {"workload": "w", "seed": 0, "trace": 0,
             "metrics": {"m": {"value": 1.0, "unit": "ms"}},
             "scoped": {"s": {"value": 2.0, "unit": "B"}}},
            {"workload": "w", "seed": 0, "trace": 1,
             "metrics": {"m": {"value": 9.0, "unit": "ms"}}},
        ]
    }
    trajectory.append(trajectory.rows(doc, "first", "a"), path)
    doc["results"][0]["metrics"]["m"]["value"] = 3.0
    trajectory.append(trajectory.rows(doc, "second", "b"), path)
    rows = trajectory.read(path)
    assert [r["label"] for r in rows] == ["first", "second"]  # traced run left out
    assert rows[0]["metrics"] == {"m": 1.0, "s": 2.0}
    assert trajectory.last_by_workload(rows)["w"]["metrics"]["m"] == 3.0
