import contextlib
import csv
import gc
import io
import json
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    contiguous_assignment,
    generate,
    line_device,
    parse_circuit,
    run_pipeline,
    serialize_circuit,
    star_topology,
)
from dynlayout import cli, control, pipeline, scheduler
from dynlayout.cli import main


def strip_runtime(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "runtime_ms"}


class TestRunPipeline:
    def test_modes_share_everything_but_layout_and_tiebreak(self):
        c = generate("random", 8, n_blocks=10, seed=2)
        dev = line_device(8)
        topo = star_topology(2)
        mc = contiguous_assignment(8, 2)
        routed_class, rep_class = run_pipeline(c, mc, topo, dev, mode="class", seed=3)
        routed_base, rep_base = run_pipeline(c, mc, topo, dev, mode="baseline", seed=3)
        assert rep_class.mode == "class" and rep_base.mode == "baseline"
        assert rep_class.operations == routed_class.circuit.count_ops()

    def test_deterministic_reports(self):
        c = generate("cc", 6)
        dev = line_device(6)
        topo = star_topology(2)
        mc = contiguous_assignment(6, 2)
        _, a = run_pipeline(c, mc, topo, dev, mode="class", seed=1)
        _, b = run_pipeline(c, mc, topo, dev, mode="class", seed=1)
        assert strip_runtime(a.to_dict()) == strip_runtime(b.to_dict())

    def test_unknown_mode_rejected(self):
        c = generate("dqft", 3)
        dev = line_device(4)
        with pytest.raises(ValueError):
            run_pipeline(c, contiguous_assignment(4, 2), star_topology(2), dev, mode="fast")

    @pytest.mark.parametrize("mode", ["class", "baseline"])
    def test_dropped_circuit_freed_without_collector(self, mode):
        # the circuit keeps its DAG and dependency sets, and neither points
        # back at it, so reference counting alone frees a dropped circuit
        c = parse_circuit(serialize_circuit(generate("random", 8, n_blocks=10, seed=2)))
        setup = (contiguous_assignment(8, 2), star_topology(2), line_device(8))
        gc.disable()
        try:
            routed, report = run_pipeline(c, *setup, mode=mode, seed=3)
            assert routed.swaps_inserted > 0
            ref = weakref.ref(c)
            del c, routed, report
            assert ref() is None
        finally:
            gc.enable()

    def test_report_schema(self):
        c = generate("dqft", 4)
        dev = line_device(4)
        _, rep = run_pipeline(c, contiguous_assignment(4, 2), star_topology(2), dev)
        doc = json.loads(rep.to_json())
        assert doc["schema_version"] == 1
        for key in ("mode", "seed", "cost_mode", "operations", "depth", "iccs",
                    "swaps_inserted", "runtime_ms", "config"):
            assert key in doc


class TestGen:
    def test_emits_parseable_circuit(self, tmp_path):
        out = tmp_path / "c.qasm"
        assert main(["gen", "dqft", "--n", "6", "--out", str(out)]) == 0
        assert parse_circuit(out.read_text()) == generate("dqft", 6)

    def test_random_needs_seed_stability(self, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        main(["gen", "random", "--n", "5", "--blocks", "7", "--seed", "4", "--out", str(a)])
        main(["gen", "random", "--n", "5", "--blocks", "7", "--seed", "4", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_unknown_family_fails(self, capsys):
        assert main(["gen", "vqe", "--n", "4"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "dqft", "--n", "3", "--blocks", "5"],
        ["place", "--circuit", "dqft3x5", "--k", "1", "--device", "line:3"],
    ], ids=["gen", "token"])
    def test_block_count_outside_random_exits_2_with_one_line(self, argv, capsys):
        # `gen --blocks` and a token's x-suffix share benchgen.generate's rule
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "block count (5)" in err
        assert err.count("\n") == 1


class TestPlaceRoute:
    def test_place_then_route_uses_layout(self, tmp_path):
        circ = tmp_path / "c.qasm"
        lay = tmp_path / "layout.json"
        rep = tmp_path / "report.json"
        main(["gen", "cc", "--n", "6", "--out", str(circ)])
        assert main([
            "place", "--circuit", str(circ), "--k", "2", "--device", "line:6",
            "--emit-layout", str(lay),
        ]) == 0
        doc = json.loads(lay.read_text())
        assert sorted(doc["layout"]) == list(range(6))
        assert main([
            "route", "--circuit", str(circ), "--k", "2", "--device", "line:6",
            "--layout", str(lay), "--report", str(rep),
        ]) == 0
        report = json.loads(rep.read_text())
        assert report["mode"] == "class"
        assert report["operations"] > 0

    def test_place_meets_lower_bound(self, capsys):
        # stage 1 already reaches the bound on dqft, which certifies it optimal
        assert main(["place", "--circuit", "dqft40", "--k", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == doc["lower_bound"] == 14

    def test_layout_without_lower_bound_accepted(self, tmp_path):
        lay = tmp_path / "layout.json"
        lay.write_text(json.dumps({"layout": [3, 2, 1, 0]}))
        assert main([
            "route", "--circuit", "dqft4", "--k", "2", "--device", "line:4", "--layout", str(lay),
        ]) == 0

    def test_route_auto_layout(self, tmp_path):
        rep = tmp_path / "report.json"
        assert main([
            "route", "--circuit", "dqft8", "--k", "2", "--device", "line:8",
            "--layout", "auto", "--report", str(rep),
        ]) == 0

    def test_layout_size_mismatch_fails(self, tmp_path):
        lay = tmp_path / "layout.json"
        lay.write_text(json.dumps({"layout": [0, 1]}))
        assert main([
            "route", "--circuit", "dqft8", "--k", "2", "--device", "line:8",
            "--layout", str(lay),
        ]) == 2

    def test_missing_circuit_file_fails(self, capsys):
        assert main(["place", "--circuit", "nope.qasm", "--k", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestTranspile:
    def test_token_shortcut_k1_zero_iccs(self, tmp_path):
        rep = tmp_path / "r.json"
        assert main([
            "transpile", "--circuit", "dqft12", "--k", "1",
            "--device", "line:12", "--report", str(rep),
        ]) == 0
        assert json.loads(rep.read_text())["iccs"] == 0

    def test_repeat_runs_identical_but_runtime(self, tmp_path):
        reps = []
        for name in ("a.json", "b.json"):
            rep = tmp_path / name
            assert main([
                "transpile", "--circuit", "cc8", "--k", "2", "--device", "line:8",
                "--mode", "baseline", "--seed", "5", "--report", str(rep),
            ]) == 0
            reps.append(json.loads(rep.read_text()))
        assert strip_runtime(reps[0]) == strip_runtime(reps[1])

    def test_topology_document(self, tmp_path):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({
            "controllers": {"kind": "star_via_router", "k": 2},
            "device": {"kind": "line", "m": 8},
            "assignment": "contiguous",
        }))
        rep = tmp_path / "r.json"
        assert main([
            "transpile", "--circuit", "dqft8", "--topology", str(topo),
            "--report", str(rep),
        ]) == 0
        assert json.loads(rep.read_text())["config"]["k_controllers"] == 2


SETUP_DEVICES = {
    "line:8": {"kind": "line", "m": 8},
    "grid:3x3": {"kind": "grid", "rows": 3, "cols": 3},
    "heavy_hex_127": {"kind": "heavy_hex_127"},
}


class TestSetupPaths:
    """The --k/--device/--controllers shortcuts, the --topology document that
    says the same and a matrix document of the same hops build one setup:
    the reports agree but runtime_ms.  The uniform builders skip the hop
    check that a matrix goes through, so this also checks that both arrays
    price alike."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("controllers", ["star", "star_via_router"])
    @pytest.mark.parametrize("device", SETUP_DEVICES)
    def test_shortcuts_match_document(self, device, controllers, k, tmp_path):
        h = {"star": 1, "star_via_router": 2}[controllers]
        hop = [[0 if i == j else h for j in range(k)] for i in range(k)]
        setups = [["--k", str(k), "--device", device, "--controllers", controllers]]
        for name, spec in (("kind", {"kind": controllers, "k": k}),
                           ("matrix", {"kind": "matrix", "hop": hop})):
            doc = tmp_path / f"{name}.json"
            doc.write_text(json.dumps({"controllers": spec, "device": SETUP_DEVICES[device]}))
            setups.append(["--topology", str(doc)])
        reports = []
        for setup in setups:
            rep = tmp_path / f"report{len(reports)}.json"
            assert main(["transpile", "--circuit", "random8x10", *setup,
                         "--report", str(rep)]) == 0
            reports.append(strip_runtime(json.loads(rep.read_text())))
        assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("k", [0, -1])
def test_no_controllers_same_error_from_shortcut_and_document(k, tmp_path, capsys):
    doc = tmp_path / "topo.json"
    doc.write_text(topology_doc(controllers={"kind": "star", "k": k}))
    for setup in (["--k", str(k), "--device", "line:4"], ["--topology", str(doc)]):
        assert main(["transpile", "--circuit", "dqft4", *setup]) == 2
        assert capsys.readouterr().err == "error: need at least one controller\n"


class TestTieEpsilon:
    """The SWAP tie is the exact minimum: --tie-epsilon is gone, so any value
    of it is refused, and reports no longer echo it."""

    @pytest.mark.parametrize("mode,text", [
        ("baseline", "-1"), ("class", "-1"), ("class", "1/0"), ("baseline", "1/0"),
        ("class", "abc"), ("class", "nan"),
    ])
    def test_bad_value_exits_2_with_one_line(self, capsys, mode, text):
        with pytest.raises(SystemExit) as exc:
            main([
                "transpile", "--circuit", "cc8", "--k", "2", "--device", "line:8",
                "--mode", mode, f"--tie-epsilon={text}",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"error: dynlayout: unrecognized arguments: --tie-epsilon={text}\n"

    @pytest.mark.parametrize("command", ["route", "transpile"])
    def test_report_config_has_no_tie_epsilon(self, tmp_path, command):
        rep = tmp_path / "r.json"
        assert main([
            command, "--circuit", "cc8", "--k", "2", "--device", "line:8", "--report", str(rep),
        ]) == 0
        assert json.loads(rep.read_text())["config"] == {
            "k_controllers": 2, "m_physical": 8, "n_qubits": 8}


class TestOracleCmd:
    def test_fig4_instance(self, tmp_path, capsys):
        assert main(["oracle", "--circuit", "dqft4", "--k", "2", "--device", "line:4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == 2

    @pytest.mark.parametrize("circuit, k, m, mode", [
        ("dqft4", 2, 4, "pair"), ("dqft6", 3, 6, "per_target"), ("cc6", 2, 6, "pair"),
        ("random6x4", 3, 7, "per_target"),
    ])
    def test_cost_not_below_lower_bound(self, circuit, k, m, mode, capsys):
        assert main(["oracle", "--circuit", circuit, "--k", str(k), "--device", f"line:{m}",
                     "--cost-mode", mode]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] >= doc["lower_bound"] >= 0

    def test_oversized_fails_cleanly(self, capsys):
        assert main(["oracle", "--circuit", "dqft30", "--k", "4"]) == 2
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--benchmarks", "dqft6,cc6", "--k-values", "2", "--seeds", "0..1",
            "--device", "line:6", "--out", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert {r["benchmark"] for r in rows} == {"dqft6", "cc6"}
        for row in rows:
            assert row["error"] == ""
            assert int(row["class_iccs"]) >= 0
            assert int(row["baseline_operations"]) > 0

    def test_single_cell_matches_transpile(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--benchmarks", "dqft8", "--k-values", "2", "--seeds", "3",
            "--device", "line:8", "--out", str(out),
        ])
        row = next(csv.DictReader(out.open()))
        for mode, col in (("class", "class_iccs"), ("baseline", "baseline_iccs")):
            rep = tmp_path / f"{mode}.json"
            main([
                "transpile", "--circuit", "dqft8", "--k", "2", "--device", "line:8",
                "--mode", mode, "--seed", "3", "--report", str(rep),
            ])
            assert json.loads(rep.read_text())["iccs"] == int(row[col])

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # second benchmark is bogus: its cells must carry errors, run continues
        assert main([
            "sweep", "--benchmarks", "dqft6,nosuch", "--k-values", "2", "--seeds", "0",
            "--device", "line:6", "--out", str(out),
        ]) == 1
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        good = [r for r in rows if not r["error"]]
        bad = [r for r in rows if r["error"]]
        assert len(good) == 1 and len(bad) == 1

    def test_bad_device_exits_2_with_one_line(self, capsys):
        assert main(["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown device") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value", [("--benchmarks", ","), ("--k-values", ","), ("--seeds", "")])
    def test_empty_grid_exits_2_with_one_line(self, flag, value, capsys):
        grid = {"--benchmarks": "cc6", "--k-values": "2", "--seeds": "0", flag: value}
        argv = [part for item in grid.items() for part in item]
        assert main(["sweep", *argv, "--device", "line:6"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flag} ") and err.count("\n") == 1

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--benchmarks", "cc6", "--k-values", "2,3", "--seeds", "0..1",
                "--device", "line:6"]
        main(args + ["--out", str(serial)])
        main(args + ["--jobs", "4", "--out", str(parallel)])

        def stable(path):
            rows = list(csv.DictReader(path.open()))
            drop = ("class_runtime_ms", "baseline_runtime_ms")
            return [{k: v for k, v in r.items() if k not in drop} for r in rows]

        assert stable(serial) == stable(parallel)

    @pytest.fixture
    def qasm_files(self, tmp_path):
        paths = []
        for family in ("cc", "dqft"):
            path = tmp_path / f"{family}6.qasm"
            path.write_text(serialize_circuit(generate(family, 6)))
            paths.append(str(path))
        return ",".join(paths)

    def test_each_file_parsed_and_dag_built_once(self, qasm_files, tmp_path, monkeypatch):
        results = {"parse": [], "dag": [], "sets": []}  # what every call returned

        def kept(name, fn):
            def wrapper(*args, **kwargs):
                results[name].append(fn(*args, **kwargs))
                return results[name][-1]
            return wrapper

        monkeypatch.setattr(cli, "parse_circuit", kept("parse", cli.parse_circuit))
        for module in (cli, pipeline, scheduler):
            for name, fn in (("dag", "build_dag"), ("sets", "extract_cidq_sets")):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, kept(name, getattr(module, fn)))
        assert main([
            "sweep", "--benchmarks", qasm_files, "--k-values", "2,3", "--seeds", "0..2",
            "--device", "line:6", "--out", str(tmp_path / "s.csv"),
        ]) == 0
        assert len(list(csv.DictReader((tmp_path / "s.csv").open()))) == 12
        # every compile of a file's 6 cells reads the one DAG and the one set
        # list built for its circuit: count the distinct objects, not the calls
        built = {name: len({id(r) for r in rs}) for name, rs in results.items()}
        assert built == {"parse": 2, "dag": 2, "sets": 2}

    def test_generated_token_built_once_per_seed(self, tmp_path, monkeypatch):
        seeds = []
        inner = cli.generate

        def counted(*args, seed=0, **kwargs):
            seeds.append(seed)
            return inner(*args, seed=seed, **kwargs)

        monkeypatch.setattr(cli, "generate", counted)
        assert main([
            "sweep", "--benchmarks", "random6x4", "--k-values", "2,3", "--seeds", "0..2",
            "--device", "line:6", "--out", str(tmp_path / "s.csv"),
        ]) == 0
        assert seeds == [0, 1, 2]

    def test_shared_loads_match_parallel_jobs(self, qasm_files, tmp_path, monkeypatch):
        in_flight, taken = [], []

        class Recording(cli.ProcessPoolExecutor):
            # at each hand-over: cells handed over whose result is not taken
            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                result = future.result
                future.result = lambda *timeout: taken.append(1) or result(*timeout)
                in_flight.append(len(in_flight) + 1 - len(taken))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        # the unparsable file's ParseError does not survive pickling, so a
        # worker must get its text
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[2];\nbogus q[0];\n")
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--benchmarks", f"{qasm_files},{bad}", "--k-values", "2,3",
                "--seeds", "0..2", "--device", "line:6"]
        assert main(args + ["--out", str(serial)]) == 1
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 1
        # 18 cells, never more than SWEEP_WINDOW_PER_JOB * jobs in flight
        assert len(in_flight) == 18 and max(in_flight) == cli.SWEEP_WINDOW_PER_JOB * 2
        drop = ("class_runtime_ms", "baseline_runtime_ms")

        def stable(path):
            return [{k: v for k, v in r.items() if k not in drop}
                    for r in csv.DictReader(path.open())]

        rows = stable(serial)
        assert rows == stable(parallel)
        assert [r["error"].split(":")[0] for r in rows] == [""] * 12 + ["ParseError"] * 6


class TestFlagScope:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "line:6",
         "--topology", "/nonexistent.json"],
        ["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "line:6", "--k", "2"],
        ["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "line:6", "--seed", "1"],
        ["place", "--circuit", "cc6", "--k", "2", "--device", "line:6", "--jobs", "2"],
        ["transpile", "--circuit", "cc6", "--k", "2", "--device", "line:6", "--jobs", "2"],
        ["gen", "cc", "--n", "6", "--cost-mode", "pair"],
        ["oracle", "--circuit", "dqft4", "--k", "2", "--device", "line:4", "--sweeps", "2"],
        ["place", "--circuit", "cc6", "--k", "2", "--device", "line:6", "--sweeps", "2"],
        ["transpile", "--circuit", "cc6", "--k", "2", "--device", "line:6", "--sweeps", "2"],
        ["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "line:6", "--sweeps", "2"],
        ["route", "--circuit", "dqft4", "--k", "2", "--device", "line:4", "--tie-epsilon", "0"],
    ])
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("token, m", [("line:5", 5), ("grid:2x3", 6), ("heavy_hex_127", 127)])
    def test_device_tokens(self, token, m, capsys):
        assert main(["place", "--circuit", "dqft4", "--k", "1", "--device", token]) == 0
        assert json.loads(capsys.readouterr().out)["m_physical"] == m

    @pytest.mark.parametrize("token", ["line:", "grid:3", "line:5x2", "heavy_hex_127:1"])
    def test_bad_device_token(self, token, capsys):
        assert main(["place", "--circuit", "dqft4", "--k", "1", "--device", token]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown device") and err.count("\n") == 1


class TestBadAngle:
    @pytest.mark.parametrize("angle", ["(-8)^0.5", "1e400", "2^10000", "0^-1"])
    def test_exits_2_with_one_line(self, angle, tmp_path, capsys):
        path = tmp_path / "angle.qasm"
        path.write_text(f"qreg q[1];\nu1({angle}) q[0];\n")
        assert main(["place", "--circuit", str(path), "--k", "1", "--device", "line:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def topology_doc(controllers=None, device=None, assignment="contiguous") -> str:
    """A topology document for line:4 under two star controllers, with one
    section replaced."""
    return json.dumps(
        {
            "controllers": controllers or {"kind": "star", "k": 2},
            "device": device or {"kind": "line", "m": 4},
            "assignment": assignment,
        }
    )


class TestBadDocuments:
    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--layout", "{}"),
            ("--layout", '{"layout": 5}'),
            ("--layout", "[1, 2]"),
            ("--layout", '{"layout": [1e400, 0, 1, 2]}'),
            ("--layout", '{"layout": [200, 0, 1, 2]}'),
            ("--layout", '{"layout": [0.7, 1, 2, 3]}'),
            ("--layout", '{"layout": [true, 0, 2, 3]}'),
            ("--topology", "null"),
            ("--topology", '{"controllers": [2], "device": {"kind": "line", "m": 4}}'),
            ("--topology", topology_doc(controllers={"kind": "star", "k": None})),
            ("--topology", topology_doc(controllers={"kind": "star", "k": True})),
            ("--topology", topology_doc(controllers={"kind": "star_via_router", "k": 2.0})),
            ("--topology", topology_doc(device={"kind": "line"})),
            ("--topology", topology_doc(device={"kind": "line", "m": "4"})),
            ("--topology", topology_doc(device={"kind": "grid", "rows": 2, "cols": False})),
            ("--topology", topology_doc(device={"kind": "edge_list"})),
            ("--topology", topology_doc(controllers={"kind": "star", "k": 1},
                                        device={"kind": "grid", "rows": -1, "cols": -1})),
            ("--topology", topology_doc(device={"kind": "grid", "rows": -2, "cols": -2})),
            ("--topology", topology_doc(device={"kind": "line", "m": -5})),
            ("--topology", topology_doc(controllers={"kind": "matrix", "hop": 5})),
            ("--topology", topology_doc(controllers={"kind": "matrix", "hop": [0, 1]})),
            ("--topology", topology_doc(controllers={"kind": "matrix", "hop": [[0, True]]})),
            ("--topology", topology_doc(controllers={"kind": "matrix",
                                                     "hop": [[0, 10**23], [10**23, 0]]})),
            ("--topology", topology_doc(assignment={"kind": "explicit", "map": 5})),
            ("--topology", topology_doc(assignment={"kind": "explicit"})),
            ("--topology", topology_doc(assignment={"kind": "explicit", "map": [0, 0.5, 1, 1]})),
        ],
    )
    def test_exits_2_with_one_line(self, flag, text, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        setup = ["--k", "2", "--device", "line:4"] if flag == "--layout" else []
        assert main(["route", "--circuit", "dqft4", *setup, flag, str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("device, field, value", [
        ({"kind": "grid", "rows": -1, "cols": -1}, "rows", -1),
        ({"kind": "grid", "rows": 2, "cols": 0}, "cols", 0),
        ({"kind": "line", "m": -5}, "m", -5),
    ], ids=["grid-rows", "grid-cols", "line-m"])
    def test_device_size_below_one_named(self, device, field, value, tmp_path, capsys):
        # a one-qubit circuit, so no later check could refuse a tiny device
        circuit = tmp_path / "one.qasm"
        circuit.write_text("qreg q[1];\nh q[0];\n")
        doc = tmp_path / "doc.json"
        doc.write_text(topology_doc(controllers={"kind": "star", "k": 1}, device=device))
        assert main(["transpile", "--circuit", str(circuit), "--topology", str(doc)]) == 2
        assert capsys.readouterr().err == (
            f"error: topology device.{field} must be a positive integer, got {value}\n")

    @pytest.mark.parametrize("line", ["1 x", "1 2 3", "-1 2", "2 2", "1 2.0",
                                      pytest.param("1 " + "9" * 5000, id="5000-digit")])
    def test_bad_edge_list_line_names_file_and_line(self, line, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n{line}\n")
        doc = tmp_path / "doc.json"
        doc.write_text(topology_doc(device={"kind": "edge_list", "path": str(edges)}))
        assert main(["route", "--circuit", "dqft4", "--topology", str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edges}:2: ") and err.count("\n") == 1



class TestDeeplyNestedJson:
    """A document nested past the JSON decoder's recursion limit is refused
    with one line naming the file, not a traceback."""

    @pytest.mark.parametrize("flag", ["--topology", "--layout"])
    def test_exits_2_with_one_line(self, flag, tmp_path, capsys):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 200_000)
        setup = ["--k", "2", "--device", "line:4"] if flag == "--layout" else []
        assert main(["route", "--circuit", "dqft4", *setup, flag, str(doc)]) == 2
        assert capsys.readouterr().err == f"error: {doc}: JSON nested too deeply\n"

class TestDeviceSizeLimit:
    """A device over MAX_DEVICE_QUBITS is refused before any list of m items
    (edges, adjacency, distance rows) is built."""

    @pytest.mark.parametrize("setup", ["shortcut", "document", "edge_list"])
    def test_exits_2_with_one_line_without_allocating(self, setup, tmp_path, monkeypatch, capsys):
        if setup == "shortcut":
            argv = ["--k", "2", "--device", "line:100000"]
        else:
            device = {"kind": "line", "m": 100000}
            if setup == "edge_list":
                edges = tmp_path / "edges.txt"
                edges.write_text("0 1\n1 100000000\n")
                device = {"kind": "edge_list", "path": str(edges)}
            doc = tmp_path / "topo.json"
            doc.write_text(topology_doc(device=device))
            argv = ["--topology", str(doc)]

        def no_bfs(self, source):
            raise AssertionError("distance table started on an oversized device")

        monkeypatch.setattr(control.DeviceGraph, "_bfs", no_bfs)
        tracemalloc.start()
        try:
            status = main(["transpile", "--circuit", "dqft4", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4096" in err and err.count("\n") == 1, err
        assert peak < 400_000, peak  # a list of 100000 items alone takes 0.8 MB


# Arbitrary JSON.  Integers stay small, so no device a document describes
# has more than 16 qubits (a line of at most 16, a grid of at most 4x4) and
# no large distance table or hop matrix is built.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=10,
)


def slots(holder, key):
    """(container, key) of holder[key] and of every value nested in it."""
    yield holder, key
    value = holder[key]
    if isinstance(value, dict):
        for k in sorted(value):
            yield from slots(value, k)
    elif isinstance(value, list):
        for i in range(len(value)):
            yield from slots(value, i)


@st.composite
def corrupted(draw, valid):
    """A document from valid with up to three values, at any depth (the
    whole document included), replaced by arbitrary JSON or deleted."""
    root = [draw(valid)]
    for _ in range(draw(st.integers(0, 3))):
        holder, key = draw(st.sampled_from(list(slots(root, 0))))
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(JSON_VALUES)
    return root[0]


UNIFORM_HOPS = st.tuples(st.integers(1, 5), st.integers(1, 3)).map(
    lambda kd: [[0 if i == j else kd[1] for j in range(kd[0])] for i in range(kd[0])])
TOPOLOGY_DOCS = corrupted(st.fixed_dictionaries(
    {
        "controllers": st.fixed_dictionaries(
            {"kind": st.sampled_from(["star", "star_via_router"]), "k": st.integers(1, 6)})
        | st.fixed_dictionaries({"kind": st.just("matrix"), "hop": UNIFORM_HOPS}),
        "device": st.fixed_dictionaries({"kind": st.just("line"), "m": st.integers(1, 16)})
        | st.fixed_dictionaries(
            {"kind": st.just("grid"), "rows": st.integers(1, 4), "cols": st.integers(1, 4)}),
    },
    optional={"assignment": st.just("contiguous") | st.fixed_dictionaries(
        {"kind": st.just("explicit"), "map": st.lists(st.integers(0, 3), min_size=1, max_size=16)})},
))
LAYOUT_DOCS = corrupted(st.fixed_dictionaries(
    {"layout": st.permutations(range(4))}, optional={"cost": st.integers(0, 3)}))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "doc.json"


class TestDocumentContract:
    """Any JSON value given as --topology or --layout either compiles or
    exits 2 with one line on stderr."""

    @staticmethod
    def check(argv, flag, doc, path):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*argv, flag, str(path)])
        err = err.getvalue()
        assert (status, err) == (0, "") or (
            status == 2 and err.startswith("error: ") and err.count("\n") == 1), (status, err)

    @settings(max_examples=200, deadline=None)
    @given(doc=TOPOLOGY_DOCS)
    def test_topology(self, doc, doc_path):
        self.check(["transpile", "--circuit", "dqft4"], "--topology", doc, doc_path)

    @settings(max_examples=200, deadline=None)
    @given(doc=LAYOUT_DOCS)
    def test_layout(self, doc, doc_path):
        argv = ["route", "--circuit", "dqft4", "--k", "2", "--device", "line:4"]
        self.check(argv, "--layout", doc, doc_path)


class TestHopRange:
    def test_largest_hop_transpiles(self, tmp_path):
        doc = tmp_path / "topo.json"
        doc.write_text(topology_doc(controllers={"kind": "matrix",
                                                 "hop": [[0, 2**31 - 1], [2**31 - 1, 0]]}))
        assert main(["transpile", "--circuit", "dqft4", "--topology", str(doc)]) == 0

    def test_hop_above_limit_names_it(self, tmp_path, capsys):
        doc = tmp_path / "topo.json"
        doc.write_text(topology_doc(controllers={"kind": "matrix",
                                                 "hop": [[0, 2**31], [2**31, 0]]}))
        assert main(["transpile", "--circuit", "dqft4", "--topology", str(doc)]) == 2
        assert "2**31 - 1" in capsys.readouterr().err


class TestOversizedRegister:
    """A register larger than the device is refused before anything sized by
    its qubit count (hypergraph, layout) is built."""

    @pytest.mark.parametrize("argv", [
        ["transpile", "--mode", "class"], ["transpile", "--mode", "baseline"], ["place"]])
    def test_exits_2_with_one_line_without_allocating(self, argv, tmp_path, capsys):
        path = tmp_path / "big.qasm"
        path.write_text("qreg q[100000000];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
                        "if (c[0]==1) x q[1];\n")
        tracemalloc.start()
        try:
            status = main([*argv, "--circuit", str(path), "--k", "4"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert capsys.readouterr().err == (
            "error: device hosts 127 qubits, circuit needs 100000000\n")
        assert peak < 1_000_000, peak  # a list of 10**8 items alone takes 800 MB


class TestTooManyControllers:
    """k > m is refused before any k x k hop matrix is built."""

    @staticmethod
    def forbid(monkeypatch, module):
        def refuse(k):
            raise AssertionError(f"star_topology({k}) built before the controller count check")

        monkeypatch.setattr(module, "star_topology", refuse)

    def test_shortcut(self, monkeypatch, capsys):
        self.forbid(monkeypatch, control)
        assert main(["transpile", "--circuit", "dqft4", "--k", "150", "--device", "line:4"]) == 2
        assert capsys.readouterr().err == "error: cannot split 4 qubits across 150 controllers\n"

    def test_topology_document(self, monkeypatch, tmp_path, capsys):
        self.forbid(monkeypatch, control)
        doc = tmp_path / "topo.json"
        doc.write_text(topology_doc(controllers={"kind": "star", "k": 150}))
        assert main(["transpile", "--circuit", "dqft4", "--topology", str(doc)]) == 2
        assert capsys.readouterr().err == "error: cannot split 4 qubits across 150 controllers\n"


class TestJobsFlag:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_fewer_than_one_exits_2_with_one_line(self, jobs, capsys):
        argv = ["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "line:6"]
        assert main([*argv, "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --jobs must be at least 1, got {jobs}\n"
