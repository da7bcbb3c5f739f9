"""End-to-end CLI: subcommands, exit codes, report determinism, bad input."""

import contextlib
import io
import json
import pathlib
import tempfile
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from cartperm.cli import (
    EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_VERIFICATION, ConfigError,
    load_field, load_monomials, load_set, main, run_config,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


BASE_CONFIG = {
    "field": {"q": 3},
    "set": {"components": [{"kind": "full"}, {"kind": "mult", "order": 2}]},
    "monomials": {"generators": [[1, 1], [2, 0]]},
    "tasks": ["classify", "closures", "p-borel-graph", "families", "oracle-verify"],
}


def test_verify_runs_all_tasks(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", BASE_CONFIG)
    out = tmp_path / "reports"
    assert main(["--out", str(out), "verify", cfg]) == EXIT_OK
    for task in BASE_CONFIG["tasks"]:
        assert (out / f"{task}.json").exists()
    oracle = json.loads((out / "oracle-verify.json").read_text())
    assert oracle["stabilizer_count"] == 36
    assert oracle["characterization"]["relation"] == "equal"
    assert oracle["affine_permutation_group"]["two_route_agreement"] is True
    closures = json.loads((out / "closures.json").read_text())
    # generators are closed under divisibility at load time
    assert closures["is_decreasing"] is True
    assert closures["closure_size"] == 5


def test_closures_task_on_explicit_monomials(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["monomials"] = {"monomials": [[1, 1]]}
    cfg["tasks"] = ["closures"]
    path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "reports"
    assert main(["--out", str(out), "verify", path]) == EXIT_OK
    closures = json.loads((out / "closures.json").read_text())
    assert closures["is_decreasing"] is False
    assert closures["input_size"] == 1 and closures["closure_size"] == 4


def test_reports_are_deterministic(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", BASE_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--out", str(out1), "verify", cfg]) == EXIT_OK
    assert main(["--out", str(out2), "verify", cfg]) == EXIT_OK
    for task in BASE_CONFIG["tasks"]:
        assert (out1 / f"{task}.json").read_bytes() == (out2 / f"{task}.json").read_bytes()


def test_examples_command(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["--out", str(out), "examples"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    report = json.loads((out / "examples.json").read_text())
    names = [ex["name"] for ex in report["examples"]]
    assert names == ["shear-counterexample", "gf9-quartic-pullbacks",
                     "gf16-transporter-table", "gf16-scaled-line",
                     "gf16-additive-triple"]
    assert all(a["status"] == "pass"
               for ex in report["examples"] for a in ex["assertions"])
    # the known discrepancies are surfaced, not silenced
    triple = report["examples"][-1]
    assert len(triple["discrepancies"]) == 2
    assert "192" in triple["discrepancies"][1]
    assert "note:" in printed


def test_graph_command(tmp_path):
    L = {"p": 2, "bound": [4, 4],
         "monomials": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    path = write_json(tmp_path / "L.json", L)
    out = tmp_path / "reports"
    assert main(["--out", str(out), "graph", path]) == EXIT_OK
    graph = json.loads((out / "graph.json").read_text())
    assert graph["p"] == 2 and graph["m"] == 2
    # missing p is a config error
    path2 = write_json(tmp_path / "L2.json", {"bound": [2, 2], "monomials": [[0, 0]]})
    assert main(["--out", str(out), "graph", path2]) == EXIT_CONFIG


def test_group_command(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["tasks"] = ["oracle-verify"]
    path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "reports"
    assert main(["--out", str(out), "group", path]) == EXIT_OK
    report = json.loads((out / "oracle-verify.json").read_text())
    assert report["affine_permutation_group"]["size"] == 36


def test_config_errors(tmp_path):
    bad = dict(BASE_CONFIG)
    bad["tasks"] = []
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["verify", path]) == EXIT_CONFIG
    bad2 = dict(BASE_CONFIG)
    bad2["tasks"] = ["no-such-task"]
    path2 = write_json(tmp_path / "bad2.json", bad2)
    assert main(["verify", path2]) == EXIT_CONFIG
    bad3 = dict(BASE_CONFIG)
    bad3["field"] = {"q": 12}
    path3 = write_json(tmp_path / "bad3.json", bad3)
    assert main(["verify", path3]) == EXIT_CONFIG
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    path4 = tmp_path / "broken.json"
    path4.write_text("{not json")
    assert main(["verify", str(path4)]) == EXIT_CONFIG


def test_budget_exceeded_exit(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["tasks"] = ["oracle-verify"]
    cfg["budget"] = 10
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["verify", path]) == EXIT_BUDGET


def test_jobs_flag_gives_same_reports(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", BASE_CONFIG)
    out1, out2 = tmp_path / "serial", tmp_path / "threads"
    assert main(["--out", str(out1), "verify", cfg]) == EXIT_OK
    assert main(["--out", str(out2), "--jobs", "3", "verify", cfg]) == EXIT_OK
    assert (out1 / "oracle-verify.json").read_bytes() == \
        (out2 / "oracle-verify.json").read_bytes()


def test_loaders_reject_malformed_pieces():
    with pytest.raises(ConfigError):
        load_field({"p": 4, "k": 1})
    with pytest.raises(ConfigError):
        load_field([])
    F = load_field({"q": 4})
    with pytest.raises(ConfigError):
        load_set(F, {"components": [{"kind": "mult", "order": 2}]})
    with pytest.raises(ConfigError):
        load_set(F, {})
    S = load_set(F, {"components": [{"kind": "full"}]})
    with pytest.raises(ConfigError):
        load_monomials({"monomials": [[9]]}, S)
    with pytest.raises(ConfigError):
        run_config({"tasks": ["classify"], "field": {"q": 4}, "set": {}}, "/tmp/x")


def test_failed_verification_exit(tmp_path):
    # an explicit two-point component with no structure still verifies fine;
    # force a failure by checking a claimed family on a set whose group axioms
    # cannot fail, so instead break the characterization: an explicit
    # component that is secretly the full field routes to the full-torus
    # family and still matches.  The reliable failure path is a monomial set
    # whose claimed subgroup is not contained, which cannot happen for sound
    # emitters, so assert the exit-code plumbing directly instead.
    from cartperm import cli

    def fake_task(F, S, L, budget, seed, jobs):
        return {"ok": False}, False

    old = dict(cli.TASK_FUNCS)
    cli.TASK_FUNCS["classify"] = fake_task
    try:
        cfg = write_json(tmp_path / "cfg.json",
                         {**BASE_CONFIG, "tasks": ["classify"]})
        assert main(["--out", str(tmp_path / "r"), "verify", cfg]) == EXIT_VERIFICATION
    finally:
        cli.TASK_FUNCS.clear()
        cli.TASK_FUNCS.update(old)


def test_no_family_for_one_point_torus(tmp_path):
    from cartperm.cli import detect_family
    F = load_field({"q": 2})
    S = load_set(F, {"components": [{"kind": "full"}, {"kind": "mult", "order": 1}]})
    assert detect_family(S) is None
    cfg = {"field": {"q": 2}, "set": S.to_json(),
           "tasks": ["families", "oracle-verify"]}
    out = tmp_path / "reports"
    assert main(["--out", str(out), "verify", write_json(tmp_path / "c.json", cfg)]) \
        == EXIT_OK
    assert "characterization" not in json.loads((out / "oracle-verify.json").read_text())


@pytest.mark.parametrize("cfg, family", [
    ({"field": {"q": 5},
      "set": {"components": [{"kind": "mult", "order": 2},
                             {"kind": "mult", "order": 4}]},
      "monomials": {"generators": [[1, 1]]}}, "mult-product"),
    ({"field": {"q": 4},
      "set": {"components": [{"kind": "add", "basis": [[1]]}] * 2},
      "monomials": {"generators": [[1, 0]]}}, "additive-power"),
])
def test_oracle_verify_scans_once(tmp_path, monkeypatch, cfg, family):
    from cartperm import cli, oracle
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return scan(*args, **kwargs)

    scan = oracle.oracle_stabilizers
    monkeypatch.setattr(oracle, "oracle_stabilizers", counted)
    monkeypatch.setattr(cli, "oracle_stabilizers", counted)
    out = tmp_path / "reports"
    path = write_json(tmp_path / "c.json", {**cfg, "tasks": ["oracle-verify"]})
    assert main(["--out", str(out), "verify", path]) == EXIT_OK
    assert len(calls) == 1
    report = json.loads((out / "oracle-verify.json").read_text())
    assert report["characterization"]["configuration"] == family
    assert report["characterization"]["relation"] == "equal"
    assert report["characterization"]["counterexamples"] == []


@pytest.mark.parametrize("path, value, where", [
    (("set", "components", 0), ["full"], "set.components[0]"),
    (("set", "components", 0), "full", "set.components[0]"),
    (("set", "components"), "full", "set.components"),
    (("monomials", "generators"), 3, "monomials.generators"),
    (("monomials", "generators", 0, 1), "1", "monomials.generators[0][1]"),
    (("monomials", "generators", 0, 1), 1.0, "monomials.generators[0][1]"),
    (("field", "q"), "4", "field.q"),
    (("set", "components", 1, "order"), "3", "set.components[1].order"),
    (("budget",), "10", "budget"),
    (("tasks",), "classify", "tasks"),
    (("tasks",), [["classify"]], "tasks"),
])
def test_malformed_config_values(tmp_path, capsys, path, value, where):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    _set_path(cfg, path, value)
    code = main(["--out", str(tmp_path / "r"), "verify",
                 write_json(tmp_path / "c.json", cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {where}")


def _set_path(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _value_paths(obj, prefix=()):
    """Every path into obj: each container and each leaf."""
    items = (obj.items() if isinstance(obj, dict) else enumerate(obj)
             if isinstance(obj, list) else ())
    yield prefix
    for key, child in items:
        yield from _value_paths(child, prefix + (key,))


FUZZ_CONFIG = {**BASE_CONFIG, "tasks": ["classify", "closures", "p-borel-graph"],
               "budget": 1000000}
FUZZ_PATHS = [p for p in _value_paths(FUZZ_CONFIG) if p]
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(),
                     st.text(max_size=8))
FUZZ_VALUES = st.one_of(
    st.lists(_scalars, max_size=3), st.text(max_size=8), st.none(),
    st.dictionaries(st.sampled_from(["kind", "order", "q", "p", "x"]), _scalars,
                    max_size=3),
    st.floats())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=FUZZ_VALUES)
def test_mutated_configs_exit_cleanly(path, value):
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    _set_path(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = pathlib.Path(tmp) / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(["--out", str(pathlib.Path(tmp) / "r"), "verify",
                             str(cfg_path)])
            except Exception:
                traceback.print_exc()
                code = None
    assert "Traceback" not in err.getvalue(), (cfg, err.getvalue())
    assert code in (EXIT_OK, EXIT_VERIFICATION, EXIT_CONFIG, EXIT_BUDGET)
