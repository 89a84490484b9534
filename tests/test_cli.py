import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import (
    build_dag,
    contiguous_assignment,
    extract_cidq_sets,
    generate,
    heavy_hex_127_device,
    line_device,
    parse_circuit,
    run_pipeline,
    serialize_circuit,
    star_topology,
)
from dynlayout import cli, control, pipeline
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
    def test_given_dag_and_sets_change_nothing(self, mode):
        c = generate("random", 8, n_blocks=10, seed=2)
        setup = (contiguous_assignment(8, 2), star_topology(2), line_device(8))
        own, rep_own = run_pipeline(c, *setup, mode=mode, seed=3)
        given, rep_given = run_pipeline(
            c, *setup, mode=mode, seed=3, dag=build_dag(c), ld=extract_cidq_sets(c))
        assert given.decisions == own.decisions and given.circuit == own.circuit
        assert strip_runtime(rep_given.to_dict()) == strip_runtime(rep_own.to_dict())

    @pytest.mark.parametrize(
        "circuit, other", [(("pe", 20), ("cc", 12)), (("cc", 12), ("pe", 20))],
        ids=["pe20-cc12", "cc12-pe20"])
    def test_foreign_dag_rejected(self, circuit, other):
        dev = heavy_hex_127_device()
        c, foreign = generate(*circuit), build_dag(generate(*other))
        with pytest.raises(ValueError, match="another circuit"):
            run_pipeline(c, contiguous_assignment(dev.m, 4), star_topology(4), dev, dag=foreign)

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
    """The --k/--device/--controllers shortcuts and the --topology document
    that says the same build one setup: the reports agree but runtime_ms."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("controllers", ["star", "star_via_router"])
    @pytest.mark.parametrize("device", SETUP_DEVICES)
    def test_shortcuts_match_document(self, device, controllers, k, tmp_path):
        doc = tmp_path / "topo.json"
        doc.write_text(json.dumps({
            "controllers": {"kind": controllers, "k": k},
            "device": SETUP_DEVICES[device],
        }))
        reports = []
        for setup in (["--k", str(k), "--device", device, "--controllers", controllers],
                      ["--topology", str(doc)]):
            rep = tmp_path / f"report{len(reports)}.json"
            assert main(["transpile", "--circuit", "random8x10", *setup,
                         "--report", str(rep)]) == 0
            reports.append(strip_runtime(json.loads(rep.read_text())))
        assert reports[0] == reports[1]


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
            "k_controllers": 2, "m_physical": 8, "n_qubits": 8, "sweeps": 1}


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
        calls = {"parse": 0, "dag": 0, "sets": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "parse_circuit", counted("parse", cli.parse_circuit))
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "build_dag", counted("dag", module.build_dag))
            monkeypatch.setattr(
                module, "extract_cidq_sets", counted("sets", module.extract_cidq_sets))
        assert main([
            "sweep", "--benchmarks", qasm_files, "--k-values", "2,3", "--seeds", "0..2",
            "--device", "line:6", "--out", str(tmp_path / "s.csv"),
        ]) == 0
        assert len(list(csv.DictReader((tmp_path / "s.csv").open()))) == 12
        # one DAG per file, one extraction per cell for both of its compiles
        assert calls == {"parse": 2, "dag": 2, "sets": 12}

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

    def test_shared_loads_match_parallel_jobs(self, qasm_files, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--benchmarks", qasm_files, "--k-values", "2,3", "--seeds", "0..2",
                "--device", "line:6"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        drop = ("class_runtime_ms", "baseline_runtime_ms")

        def stable(path):
            return [{k: v for k, v in r.items() if k not in drop}
                    for r in csv.DictReader(path.open())]

        assert stable(serial) == stable(parallel)


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


class TestTooManyControllers:
    """k > m is refused before any k x k hop matrix is built."""

    @staticmethod
    def forbid(monkeypatch, module):
        def refuse(k):
            raise AssertionError(f"star_topology({k}) built before the controller count check")

        monkeypatch.setattr(module, "star_topology", refuse)

    def test_shortcut(self, monkeypatch, capsys):
        self.forbid(monkeypatch, cli)
        assert main(["transpile", "--circuit", "dqft4", "--k", "150", "--device", "line:4"]) == 2
        assert capsys.readouterr().err == "error: cannot split 4 qubits across 150 controllers\n"

    def test_topology_document(self, monkeypatch, tmp_path, capsys):
        self.forbid(monkeypatch, control)
        doc = tmp_path / "topo.json"
        doc.write_text(topology_doc(controllers={"kind": "star", "k": 150}))
        assert main(["transpile", "--circuit", "dqft4", "--topology", str(doc)]) == 2
        assert capsys.readouterr().err == "error: cannot split 4 qubits across 150 controllers\n"


class TestSweepsFlag:
    @pytest.mark.parametrize("sweeps", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["transpile", "--circuit", "dqft4", "--k", "2", "--device", "line:4"],
            ["transpile", "--circuit", "dqft4", "--k", "2", "--device", "line:4",
             "--mode", "baseline"],
            ["sweep", "--benchmarks", "cc6", "--k-values", "2", "--device", "line:6"],
        ],
        ids=["class", "baseline", "sweep"],
    )
    def test_fewer_than_one_exits_2_with_one_line(self, argv, sweeps, capsys):
        assert main([*argv, "--sweeps", sweeps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sweeps" in err and err.count("\n") == 1
