import csv
import json
import subprocess
import sys

import pytest

from rguard import cli_io
from rguard.cli_io import loglog_slope, main
from rguard.dp_solver import SolverError
from rguard.tree_decomposition import DecompositionError

TASK_ALL = {"targets": {"mode": "all"}, "guards": {"modes": ["all-points"]},
            "degenerate": False}


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.fixture
def l_polygon(tmp_path):
    p = tmp_path / "poly.json"
    write(p, {"outer": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
              "holes": []})
    return p


@pytest.fixture
def task_file(tmp_path):
    t = tmp_path / "task.json"
    write(t, TASK_ALL)
    return t


def test_solve_optimal_exit0(tmp_path, l_polygon, task_file, capsys):
    out = tmp_path / "sol.json"
    svg = tmp_path / "sol.svg"
    code = main(["solve", "--polygon", str(l_polygon), "--task", str(task_file),
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["status"] == "optimal" and sol["size"] == 1
    assert len(sol["certificates"]) == 3
    assert svg.read_text().startswith("<?xml")


def test_solve_infeasible_exit2(tmp_path, l_polygon):
    t = tmp_path / "task.json"
    write(t, {"targets": {"mode": "all"},
              "guards": {"modes": ["pixels"], "pixels": []},
              "degenerate": False})
    out = tmp_path / "sol.json"
    code = main(["solve", "--polygon", str(l_polygon), "--task", str(t),
                 "--out", str(out)])
    assert code == 2
    sol = json.loads(out.read_text())
    assert sol["status"] == "infeasible"
    assert "witness" in sol


def test_input_errors_exit1(tmp_path, task_file, l_polygon, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"outer": [[0,0],[2,2],[0,2]]}', encoding="utf-8")
    out = tmp_path / "x.json"
    assert main(["solve", "--polygon", str(bad), "--task", str(task_file),
                 "--out", str(out)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["solve", "--polygon", str(missing), "--task", str(task_file),
                 "--out", str(out)]) == 1
    # a task without the degeneracy flag is rejected
    t = tmp_path / "t.json"
    write(t, {"targets": {"mode": "all"}, "guards": {"modes": ["all-points"]}})
    assert main(["solve", "--polygon", str(bad), "--task", str(t),
                 "--out", str(out)]) == 1
    assert main(["nonsense"]) == 1
    # malformed fields are neither coerced nor raised out of main
    pixels = {"modes": ["pixels"], "pixels": [0.7]}
    for obj in ({"degenerate": "no"},
                {"degenerate": False, "guards": pixels},
                {"degenerate": False, "guards": {**pixels, "pixels": [True]}},
                {"degenerate": False,
                 "targets": {"mode": "points", "points": [["a", 1]]}},
                {"degenerate": False, "targets": "all"},
                [False]):
        write(t, obj)
        capsys.readouterr()
        assert main(["solve", "--polygon", str(l_polygon), "--task", str(t),
                     "--out", str(out)]) == 1, obj
        assert capsys.readouterr().err.startswith("error: "), obj
    ring = json.loads(l_polygon.read_text())["outer"]
    for obj in ({"outer": ring, "holes": 5}, {"outer": ring, "holes": [7]},
                {"outer": ring[:-1] + [[0, True]]}):
        write(bad, obj)
        capsys.readouterr()
        assert main(["diag", "--polygon", str(bad)]) == 1, obj
        assert capsys.readouterr().err.startswith("error: "), obj


def test_bad_options_and_files_exit1(tmp_path, l_polygon, task_file, capsys):
    """Malformed bench lists, out-of-range generator options, unreadable
    graph files and unwritable output paths end in one error line and exit
    1, not in a traceback."""
    graphs = {"missing": None, "bad_json": "{bad", "no_edges": '{"vertices": {}}'}
    for name, text in graphs.items():
        if text is not None:
            (tmp_path / name).write_text(text, encoding="utf-8")
    nowhere = str(tmp_path / "no-such-dir" / "out")
    solve = ["solve", "--polygon", str(l_polygon), "--task", str(task_file)]
    holed = ["gen", "holed", "--pixels", "9", "--seed", "1"]
    cases = [["bench", "--sizes", "10,x"],
             ["bench", "--sizes", "10", "--seeds", "a"],
             ["bench", "--sizes", "10", "--csv", nowhere],
             ["bench", "--sizes", "30,30"],
             [*holed, "--scale", "0"],
             [*holed, "--holes", "-3"],
             [*solve, "--out", nowhere],
             [*solve, "--out", str(tmp_path / "sol.json"), "--svg", nowhere],
             ["gen", "tree", "--pixels", "9", "--out", nowhere],
             ["gen", "hardness", "--meta", nowhere]]
    cases += [["gen", "hardness", "--graph-file", str(tmp_path / name)]
              for name in graphs]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_unwritable_output_fails_before_the_solve(tmp_path, l_polygon,
                                                  task_file, capsys,
                                                  monkeypatch):
    """An --out or --svg that cannot be written ends rguard solve before
    solve_task is called, and the check leaves no file behind."""
    def never(poly, task):
        raise AssertionError("solve_task called")
    monkeypatch.setattr(cli_io, "solve_task", never)
    nowhere = str(tmp_path / "no-such-dir" / "out")
    out = tmp_path / "sol.json"
    solve = ["solve", "--polygon", str(l_polygon), "--task", str(task_file)]
    for argv in ([*solve, "--out", nowhere],
                 [*solve, "--out", str(out), "--svg", nowhere],
                 [*solve, "--out", str(tmp_path)]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: output file: "), argv
        assert not out.exists(), argv


def test_empty_rings_report_too_few_vertices(tmp_path, l_polygon, capsys):
    bad = tmp_path / "bad.json"
    ring = json.loads(l_polygon.read_text())["outer"]
    for obj in ({"outer": []}, {"outer": ring, "holes": [[]]}):
        write(bad, obj)
        capsys.readouterr()
        assert main(["diag", "--polygon", str(bad)]) == 1, obj
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "too-few-vertices" in err, err


@pytest.mark.parametrize("exc", [SolverError("dead end in DP"),
                                 DecompositionError("empty dual graph")])
def test_solve_errors_exit1(tmp_path, l_polygon, task_file, capsys,
                            monkeypatch, exc):
    def failing(poly, task):
        raise exc
    monkeypatch.setattr(cli_io, "solve_task", failing)
    assert main(["solve", "--polygon", str(l_polygon), "--task",
                 str(task_file), "--out", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_solve_out_of_memory_exit1(tmp_path, l_polygon, task_file, capsys,
                                   monkeypatch):
    def exhausted(poly, task):
        raise MemoryError
    monkeypatch.setattr(cli_io, "solve_task", exhausted)
    assert main(["solve", "--polygon", str(l_polygon), "--task",
                 str(task_file), "--out", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err == "error: out of memory (MemoryError)\n"
    assert not (tmp_path / "sol.json").exists()


def test_diag_output(l_polygon, capsys):
    assert main(["diag", "--polygon", str(l_polygon)]) == 0
    out = capsys.readouterr().out
    assert "pixels: 3" in out
    assert "thin: true" in out
    assert "K: 1" in out
    assert "holes: 0" in out
    assert "width: 1" in out
    assert "maxrect-incidence: 2" in out


def test_oracle_cli(l_polygon, task_file, capsys):
    assert main(["oracle", "--polygon", str(l_polygon),
                 "--task", str(task_file)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["size"] == 1


def test_gen_commands(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "tree", "--pixels", "9", "--seed", "4",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["holes"] == []
    assert main(["gen", "ktin", "--k", "2", "--teeth", "4",
                 "--out", str(out)]) == 0
    assert main(["gen", "holed", "--pixels", "8", "--holes", "1", "--seed", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["holes"]
    meta = tmp_path / "meta.json"
    assert main(["gen", "hardness", "--graph", "k3", "--out", str(out),
                 "--meta", str(meta)]) == 0
    assert "s_v" in json.loads(meta.read_text())
    assert main(["gen", "tree", "--pixels", "2", "--out", str(out)]) == 1


def test_bench_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--family", "tree", "--sizes", "40,80",
                 "--seeds", "0,1", "--csv", str(csv_path),
                 "--max-ratio", "8.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "log-log slope" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "family,k,size,seed,pixels,vertices,phase,seconds"
    with open(csv_path, newline="") as f:
        assert {r["k"] for r in csv.DictReader(f)} == {"1"}


def test_bench_ktin_times_full_solve(tmp_path):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--family", "ktin", "--k", "2", "--sizes", "40,80",
                 "--csv", str(csv_path), "--max-ratio", "8.0"])
    assert code == 0
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    for size in ("40", "80"):
        phases = {r["phase"] for r in rows if r["size"] == size}
        assert {"pixelate", "reduce", "decompose", "dp", "gc",
                "total"} <= phases


def test_loglog_slope_exact():
    sizes = [1024, 2048, 4096, 8192]
    assert loglog_slope(sizes, [n / 2 ** 20 for n in sizes]) == 1.0
    assert loglog_slope(sizes, [n * n / 2 ** 30 for n in sizes]) == 2.0


def test_round_trip_solution_verifies(tmp_path, l_polygon, task_file):
    # solve via CLI, re-load, check the certificate structure is consistent
    out = tmp_path / "sol.json"
    main(["solve", "--polygon", str(l_polygon), "--task", str(task_file),
          "--out", str(out)])
    sol = json.loads(out.read_text())
    for cert in sol["certificates"]:
        assert 0 <= cert["guard"] < sol["size"]


def test_byte_identical_across_processes(tmp_path, l_polygon, task_file):
    outs = []
    for run in (1, 2):
        out = tmp_path / f"sol{run}.json"
        svg = tmp_path / f"sol{run}.svg"
        res = subprocess.run(
            [sys.executable, "-m", "rguard.cli_io", "solve",
             "--polygon", str(l_polygon), "--task", str(task_file),
             "--out", str(out), "--svg", str(svg)],
            capture_output=True, check=True)
        outs.append((out.read_bytes(), svg.read_bytes()))
    assert outs[0] == outs[1]
