import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horizonrisk import (BrownianLattice, LossSpec, QParams, QuadraticQDriver,
                         RandomVariable, ScenarioTree, UtilityFn,
                         certainty_equivalent, g_risk_measure,
                         q_entropic_losses)
from horizonrisk import cli
from horizonrisk.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_REQUIRED_AXIOM,
                             EXIT_OK, _fmt, main, run_config, validate_config)

from golden.make_golden import golden_configs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TWO_ATOM_MODEL = {
    "kind": "tree",
    "times": [0.0, 1.0],
    "nodes": [
        {"id": 0, "depth": 0, "parent": None, "p": 1.0},
        {"id": 1, "depth": 1, "parent": 0, "p": 0.5},
        {"id": 2, "depth": 1, "parent": 0, "p": 0.5},
    ],
}


TWO_STEP_MODEL = {
    "kind": "tree",
    "times": [0.0, 0.5, 1.0],
    "nodes": [{"id": 0, "depth": 0, "parent": None, "p": 1.0},
              *({"id": i, "depth": 1, "parent": 0, "p": 0.5} for i in (1, 2)),
              *({"id": i, "depth": 2, "parent": 1 + (i - 3) // 2, "p": 0.5}
                for i in (3, 4, 5, 6))],
}


LATTICE = {"kind": "lattice", "steps": 8, "horizon": 1.0}
UNIFORM = [{"kind": "evaluate", "position": {"kind": "uniform"}}]


def write_config(tmp_path, blob, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


def base_config(**overrides):
    cfg = {
        "model": dict(TWO_ATOM_MODEL),
        "seed": 1,
        "measure": {"kind": "entropic", "b": 1.0},
        "tasks": [{"kind": "evaluate", "t": 0.0, "u": 1.0,
                   "position": {"kind": "values", "values": [1.0, -1.0]}}],
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_shipped_configs_validate(self):
        for path in sorted(CONFIGS.glob("*.json")):
            validate_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = base_config()
        cfg["surprise"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["measure"]["gamma"] = 0.5
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_empty_task_list_rejected(self, tmp_path):
        cfg = base_config(tasks=[])
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_domains_rechecked_at_load(self, tmp_path):
        cfg = base_config(measure={"kind": "q_entropic", "q": 0.5,
                                   "alpha": -5.0})
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e999",
        pytest.param("1" + "0" * 400, id="int-beyond-float-range"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, literal):
        # json.dumps writes NaN and +-Infinity; 1e999 overflows to inf, and
        # a 401-digit integer has no float at all
        text = json.dumps(base_config()).replace("1.0, -1.0",
                                                 f"{literal}, -1.0")
        assert literal in text
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task", [
        {"kind": "evaluate", "t": 0.0, "u": 0.3},
        {"kind": "longevity", "t": 0.0, "u": 0.5, "v": 0.9},
        {"kind": "bsde-convergence", "t": 0.25, "grid": [8, 2]},
    ])
    def test_off_grid_task_times_rejected(self, tmp_path, task):
        cfg = base_config(
            model={"kind": "lattice", "steps": 8, "horizon": 1.0},
            measure={"kind": "bsde", "driver": {"kind": "entropic"}},
            tasks=[task],
        )
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_CONFIG

    @pytest.mark.parametrize("task", [
        {"kind": "evaluate", "t": 0.75, "u": 0.5},
        {"kind": "longevity", "t": 0.0, "u": 0.75, "v": 0.5},
    ])
    def test_task_times_out_of_order_rejected(self, tmp_path, task):
        cfg = base_config(
            model={"kind": "lattice", "steps": 8, "horizon": 1.0},
            tasks=[dict(task, position={"kind": "uniform"})],
        )
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_required_axiom_outside_checks_rejected(self, tmp_path):
        # the tree and measure of the hq-entropic golden axiom suite, where
        # cash_additive fails; unchecked, it used to pass silently
        golden = Path(__file__).resolve().parent / "golden" / "configs"
        cfg = json.loads(
            (golden / "tree_hq_entropic_axioms.json").read_text())
        cfg["tasks"] = [{"kind": "axioms", "checks": ["monotone"],
                         "required": ["cash_additive"], "samples": 4}]
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_required_axiom_on_a_task_without_checks_rejected(self, tmp_path):
        cfg = base_config()
        cfg["tasks"][0]["required"] = ["monotone"]
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_CONFIG

    @pytest.mark.parametrize("overrides", [
        {"tasks": [{"kind": "axioms"}]},
        {"model": {"kind": "lattice", "steps": 8, "horizon": 1.0},
         "measure": {"kind": "bsde", "driver": {"kind": "entropic"}},
         "tasks": [{"kind": "bsde-convergence"}]},
    ], ids=["axioms-without-checks", "convergence-without-grid"])
    def test_task_without_its_key_rejected(self, tmp_path, overrides):
        # both used to escape as a KeyError traceback with exit 1
        path = write_config(tmp_path, base_config(**overrides))
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("aggregator, key", [
        ({"kind": "scaled_additive"}, "beta"),
        ({"kind": "exponential"}, "gamma"),
        ({"kind": "hq"}, "q"),
    ], ids=["scaled_additive", "exponential", "hq"])
    def test_aggregator_without_its_key_rejected(self, tmp_path, capsys,
                                                 aggregator, key):
        # these used to pass the schema and crash with a KeyError, exit 1
        cfg = json.loads((CONFIGS / "duality_entropic.json").read_text())
        cfg["measure"]["aggregator"] = aggregator
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"'{key}' is a required property" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, key", [
        ({"model": {"kind": "lattice", "horizon": 1.0}}, "steps"),
        ({"model": {"kind": "tree", "times": [0.0, 1.0]}}, "nodes"),
        ({"model": {"kind": "tree", "nodes": TWO_ATOM_MODEL["nodes"]}},
         "times"),
        ({"measure": {"kind": "q_entropic"}}, "q"),
        ({"measure": {"kind": "hq_entropic", "beta": 0.1}}, "q"),
        ({"model": LATTICE, "measure": {"kind": "bsde"}}, "driver"),
        ({"model": LATTICE,
          "measure": {"kind": "bsde", "driver": {"kind": "quadratic_q"}}},
         "q"),
        ({"measure": {"kind": "certainty_equivalent"}}, "utility"),
        ({"tasks": [{"kind": "axioms", "samples": 4}]}, "checks"),
        ({"model": LATTICE,
          "measure": {"kind": "bsde", "driver": {"kind": "entropic"}},
          "tasks": [{"kind": "bsde-convergence"}]}, "grid"),
        ({"tasks": [{"kind": "evaluate", "position": {"kind": "values"}}]},
         "values"),
    ], ids=["lattice-steps", "tree-nodes", "tree-times", "q_entropic-q",
            "hq_entropic-q", "bsde-driver", "quadratic_q-q",
            "certainty_equivalent-utility", "axioms-checks",
            "convergence-grid", "values-position-values"])
    def test_kind_without_its_required_key_rejected(self, tmp_path, capsys,
                                                    overrides, key):
        path = write_config(tmp_path, base_config(**overrides))
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        message = f"riskctl: config error: config schema violation: " \
                  f"'{key}' is a required property\n"
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda nodes: [1, 2],
        lambda nodes: [],
        lambda nodes: [nodes[0], {"id": 1, "depth": 1, "p": 0.5}, nodes[2]],
        lambda nodes: [nodes[0], {**nodes[1], "id": "1"}, nodes[2]],
        lambda nodes: [nodes[0], {**nodes[1], "p": "0.5"}, nodes[2]],
        lambda nodes: [nodes[0], {**nodes[1], "label": "up"}, nodes[2]],
    ], ids=["not-objects", "empty", "no-parent", "string-id", "string-p",
            "unknown-key"])
    def test_malformed_tree_nodes_rejected(self, tmp_path, edit):
        # the first four used to crash the build with a traceback and exit 1;
        # a string p and an unknown key used to run
        cfg = json.loads((CONFIGS / "entropic_two_atom.json").read_text())
        cfg["model"]["nodes"] = edit(cfg["model"]["nodes"])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"tasks": [{"kind": "evaluate", "position": {
            "kind": "values", "values": [1.0, -1.0, 0.5]}}]},
         "position needs exactly 2 values at depth 1"),
        ({"tasks": [{"kind": "evaluate",
                     "position": {"kind": "two_valued"}}]},
         "two_valued positions need a lattice model"),
        ({"tasks": [{"kind": "duality"}]},
         "duality tasks need a shortfall measure"),
        ({"model": LATTICE, "tasks": [{"kind": "bsde-convergence",
                                       "grid": [8]}]},
         "bsde-convergence tasks need a bsde measure"),
        ({"model": LATTICE,
          "measure": {"kind": "bsde", "driver": {"kind": "linear"}},
          "tasks": [{"kind": "bsde-convergence", "grid": [8]}]},
         "no closed-form reference for general linear drivers"),
        ({"model": TWO_STEP_MODEL, "measure": {"kind": "shortfall"},
          "tasks": [{"kind": "duality", "t": 0.5}]},
         "task 0 is a static dual: it needs depth(t) = 0 and depth(u) = 2, "
         "got 1 and 2"),
        ({"model": TWO_STEP_MODEL, "measure": {"kind": "shortfall"},
          "tasks": [{"kind": "duality", "u": 0.5}]},
         "task 0 is a static dual: it needs depth(t) = 0 and depth(u) = 2, "
         "got 0 and 1"),
        ({"measure": {"kind": "bsde", "driver": {"kind": "entropic"}}},
         "bsde measures need a lattice model"),
    ], ids=["values-length", "two_valued-on-tree", "duality-measure",
            "convergence-measure", "convergence-linear-driver",
            "duality-t-after-the-root", "duality-u-before-the-horizon",
            "bsde-on-tree"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys,
                                               overrides, message):
        # validate used to print "config ok" for these
        path = write_config(tmp_path, base_config(**overrides))
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    def test_run_and_validate_print_one_rejection_line(self, tmp_path):
        # at the default log level run used to log the rejection as well;
        # pytest captures logging, so the streams are read in a subprocess
        cfg = base_config(model=LATTICE, tasks=[
            {"kind": "evaluate", "t": 0.3, "position": {"kind": "uniform"}}])
        path = write_config(tmp_path, cfg)
        code = "import sys\nfrom horizonrisk.cli import main\n" \
               "sys.exit(main(sys.argv[1:]))\n"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("RISKCTL_LOG", None)
        errs = []
        for argv in (["validate", str(path)],
                     ["run", str(path), "--out", str(tmp_path / "out")]):
            proc = subprocess.run([sys.executable, "-c", code, *argv],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_CONFIG
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0].startswith("riskctl: config error: ")
        assert errs[0].count("\n") == 1

    @pytest.mark.parametrize("config", [
        lambda n: base_config(model={**LATTICE, "steps": n}, tasks=UNIFORM),
        lambda n: base_config(seed=n),
        lambda n: base_config(model=LATTICE, measure={
            "kind": "bsde", "driver": {"kind": "entropic"}},
            tasks=[{"kind": "bsde-convergence", "grid": [n]}]),
        lambda n: base_config(tasks=[{"kind": "axioms", "checks": ["monotone"],
                                      "samples": n}]),
        lambda n: base_config(model={"kind": "random_tree", "depth": 2,
                                     "max_branching": n}, tasks=UNIFORM),
        lambda n: base_config(model={**TWO_ATOM_MODEL, "nodes": [
            TWO_ATOM_MODEL["nodes"][0],
            *({**node, "depth": n - 2} for node in TWO_ATOM_MODEL["nodes"][1:])]}),
    ], ids=["steps", "seed", "grid", "samples", "max_branching", "node-depth"])
    def test_integer_keys_take_only_integer_literals(self, tmp_path, config):
        # the draft's integer type admits 4.0, which then crashed the build
        # of the model or task (exit 1) or ran as if it were 4
        ok = write_config(tmp_path, config(3), "ok.json")
        bad = write_config(tmp_path, config(3.0), "bad.json")
        out = tmp_path / "out"
        assert main(["validate", str(ok)]) == EXIT_OK
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert main(["run", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_nan_is_never_printed_as_infinity(self):
        assert _fmt(float("nan")) == "nan"
        assert _fmt(float("-inf")) == "-inf"
        assert _fmt(float("inf")) == "+inf"

    def test_valid_config_passes(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["validate", str(path)]) == EXIT_OK


class TestRun:
    def test_evaluate_emits_documented_value(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_evaluate.csv").read_text().splitlines()
        assert rows[0] == "node,value"
        assert rows[1] == "0,0.43378083"

    @pytest.mark.parametrize("measure, rho", [
        ({"kind": "q_entropic", "q": 0.5, "alpha": 0.25, "beta": 0.1},
         lambda X: q_entropic_losses(X, 0.5, LossSpec(
             beta=0.1, qparams=QParams(q=0.5, alpha_q=0.25)))),
        ({"kind": "certainty_equivalent",
          "utility": {"kind": "exp_bounded", "gamma": 0.5}},
         lambda X: certainty_equivalent(X, 0.5, UtilityFn.exp_bounded(0.5))),
    ], ids=["q_entropic", "certainty_equivalent"])
    def test_evaluate_writes_the_measure_at_every_node(self, tmp_path,
                                                       measure, rho):
        values = [1.0, -0.5, 0.25, -1.0]
        cfg = base_config(model=TWO_STEP_MODEL, measure=measure, tasks=[
            {"kind": "evaluate", "t": 0.5,
             "position": {"kind": "values", "values": values}}])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_evaluate.csv").read_text().splitlines()
        X = RandomVariable(ScenarioTree.from_json_dict(TWO_STEP_MODEL), 2,
                           values)
        want = rho(X).values
        assert len(want) == 2
        assert rows[1:] == [f"{i},{_fmt(v)}" for i, v in enumerate(want)]

    def test_axioms_profile_of_hq_measure(self, tmp_path):
        cfg = base_config(
            model={"kind": "random_tree", "depth": 3, "max_branching": 2},
            measure={"kind": "hq_entropic", "q": 0.5, "alpha": 0.0,
                     "beta": 0.0,
                     "a": {"breakpoints": [0.0], "values": [0.1]}},
            tasks=[{"kind": "axioms", "t": 0.0, "u": 1.0, "samples": 8,
                    "checks": ["cash_additive", "cash_subadditive",
                               "h_longevity"]}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        reports = json.loads((out / "task00_axioms.json").read_text())
        verdicts = {r["axiom"]: r["passed"] for r in reports}
        assert verdicts == {"cash_additive": False, "cash_subadditive": True,
                            "h_longevity": True}
        failed = [r for r in reports if not r["passed"]]
        assert failed[0]["witness"] is not None

    def test_required_axiom_failure_exits_four(self, tmp_path):
        cfg = base_config(
            measure={"kind": "hq_entropic", "q": 0.5, "alpha": 0.0,
                     "beta": 0.0,
                     "a": {"breakpoints": [0.0], "values": [0.1]}},
            tasks=[{"kind": "axioms", "checks": ["cash_additive"],
                    "required": ["cash_additive"], "samples": 6}],
        )
        path = write_config(tmp_path, cfg)
        assert run_config(path, out_dir=tmp_path / "out") == \
            EXIT_REQUIRED_AXIOM

    def test_json_artifacts_are_strict_json(self, tmp_path):
        """Non-finite floats are written with the CSV's spellings: the
        shortfall is +inf everywhere, so normalized fails with -inf."""
        cfg = base_config(
            model={"kind": "random_tree", "depth": 2},
            measure={"kind": "shortfall", "utility": {"kind": "linear"},
                     "aggregator": {"kind": "exponential", "gamma": 0.5},
                     "target": 1.5},
            tasks=[{"kind": "axioms", "checks": ["normalized", "monotone"]}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        artifacts = {p.name: json.loads(p.read_text(), parse_constant=reject)
                     for p in sorted(out.glob("*.json"))}
        assert list(artifacts) == ["task00_axioms.json"]
        normalized = artifacts["task00_axioms.json"][0]
        assert normalized["worst_slack"] == "-inf"
        assert normalized["witness"]["rho_zero"] == ["+inf"]

    def test_numerical_error_exits_three(self, tmp_path):
        # quadratic driver outside its domain: terminal -X below 1/(q-1)
        cfg = base_config(
            model={"kind": "lattice", "steps": 4, "horizon": 1.0},
            measure={"kind": "bsde", "driver": {"kind": "quadratic_q",
                                                "q": 0.5}},
            tasks=[{"kind": "evaluate", "t": 0.0, "u": 1.0,
                    "position": {"kind": "constant", "value": 5.0}}],
        )
        path = write_config(tmp_path, cfg)
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_NUMERICAL

    def test_unexpected_task_exception_exits_three(self, tmp_path, capsys,
                                                   monkeypatch):
        def fail(*args):
            raise ZeroDivisionError("division by zero")

        evaluate = cli._TASKS["evaluate"]
        monkeypatch.setitem(cli._TASKS, "evaluate",
                            evaluate._replace(build=fail))
        path = write_config(tmp_path, base_config())
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == \
            EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == ("riskctl: numerical error: "
                       "ZeroDivisionError: division by zero\n")

    def test_duality_rows_of_divergent_measures_read_minus_inf(self,
                                                               tmp_path):
        # linear utility, additive aggregator: c_min(., Q) = +inf for every
        # Q != P, so only the row Q = P has a finite R
        cfg = base_config(
            measure={"kind": "shortfall", "utility": {"kind": "linear"},
                     "aggregator": {"kind": "additive"}, "target": 0.0},
            tasks=[{"kind": "duality", "u": 1.0, "resolution": 0.05,
                    "position": {"kind": "values", "values": [1.0, -2.0]}}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        header, *rows = (out / "task00_duality.csv").read_text().splitlines()
        assert header == "q0,q1,eq_neg_x,r"
        assert len(rows) == 19
        for row in rows:
            q0, _, _, r = row.split(",")
            if q0 == "0.5":
                assert math.isfinite(float(r))
            else:
                assert r == "-inf"
        summary = json.loads((out / "task00_duality.json").read_text())
        assert math.isfinite(float(summary["dual_value"]))

    def test_duality_times_within_the_grid_tolerance_change_nothing(
            self, tmp_path):
        # t within 1e-9 of 0 and u within 1e-9 of the horizon are the
        # static dual's only times, so the artifacts are the defaults' own
        outs = []
        for times in ({}, {"t": 1e-12, "u": 1.0 - 5e-10}):
            cfg = base_config(
                model=TWO_STEP_MODEL,
                measure={"kind": "shortfall",
                         "utility": {"kind": "exp_bounded"}},
                tasks=[{"kind": "duality", "resolution": 0.2, **times,
                        "position": {"kind": "values",
                                     "values": [1.0, -0.5, 0.25, -1.0]}}])
            out = tmp_path / f"out{len(outs)}"
            path = write_config(tmp_path, cfg, name=f"cfg{len(outs)}.json")
            assert main(["validate", str(path)]) == EXIT_OK
            assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(outs[0]) == ["task00_duality.csv", "task00_duality.json"]
        assert outs[1] == outs[0]

    def test_duality_grid_above_the_row_cap_rejected(self, tmp_path, capsys):
        # 4 atoms at resolution 1e-5 make C(99 999, 3) ~ 1.7e14 measures:
        # refused from their count, before one is built
        cfg = base_config(
            model=TWO_STEP_MODEL,
            measure={"kind": "shortfall", "utility": {"kind": "exp_bounded"}},
            tasks=[{"kind": "duality", "resolution": 1e-5,
                    "position": {"kind": "values",
                                 "values": [1.0, -0.5, 0.25, -1.0]}}])
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert run_config(path, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("riskctl: config error: resolution 1e-05 ")
        assert err[0].endswith("above the cap of 10000")

    def test_convergence_task_errors_decrease(self, tmp_path):
        cfg = base_config(
            model={"kind": "lattice", "steps": 8, "horizon": 1.0},
            measure={"kind": "bsde", "driver": {"kind": "entropic"}},
            tasks=[{"kind": "bsde-convergence", "grid": [8, 16, 32],
                    "payoff": {"kind": "two_valued", "threshold": 0.1,
                               "lo": -0.75, "hi": 0.75}}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_convergence.csv").read_text().splitlines()[1:]
        errs = [float(r.split(",")[2]) for r in rows]
        assert errs == sorted(errs, reverse=True)

    def test_convergence_evaluates_at_u(self, tmp_path):
        payoff = {"kind": "two_valued", "threshold": 0.1, "lo": -0.75,
                  "hi": 0.75}
        cfg = base_config(
            model=LATTICE,
            measure={"kind": "bsde", "driver": {"kind": "entropic"}},
            tasks=[{"kind": "bsde-convergence", "u": 0.5, "grid": [8, 16],
                    "payoff": payoff}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_convergence.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row, n in zip(rows, [8, 16]):
            lattice = BrownianLattice(n)
            depth = lattice.depth_of(0.5)
            X = RandomVariable(lattice, depth, np.where(
                lattice.brownian(depth) >= 0.1, 0.75, -0.75))
            want = g_risk_measure(lattice, QuadraticQDriver.entropic(), X,
                                  0.0, 0.5)
            assert row.split(",")[:2] == [str(n), _fmt(want.values[0])]

    def test_zero_driver_convergence_is_exact(self, tmp_path):
        cfg = base_config(
            model={"kind": "lattice", "steps": 8, "horizon": 1.0},
            measure={"kind": "bsde", "driver": {"kind": "zero"}},
            tasks=[{"kind": "bsde-convergence", "grid": [8, 16],
                    "payoff": {"kind": "two_valued", "threshold": 0.1,
                               "lo": -1.0, "hi": 1.0}}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_convergence.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) <= 1e-12 for r in rows)

    def test_quadratic_driver_convergence_vs_transform(self, tmp_path):
        cfg = base_config(
            model={"kind": "lattice", "steps": 8, "horizon": 1.0},
            measure={"kind": "bsde",
                     "driver": {"kind": "quadratic_q", "q": 0.5,
                                "a": {"breakpoints": [0.0],
                                      "values": [0.1]}}},
            tasks=[{"kind": "bsde-convergence", "grid": [8, 16, 32],
                    "payoff": {"kind": "two_valued", "threshold": 0.0,
                               "lo": -1.0, "hi": 0.0}}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_convergence.csv").read_text().splitlines()[1:]
        errs = [float(r.split(",")[2]) for r in rows]
        assert errs[-1] <= 1e-2  # N = 32 row

    def test_longevity_task_emits_formula_column_for_linear(self, tmp_path):
        cfg = base_config(
            model={"kind": "lattice", "steps": 8, "horizon": 1.0},
            measure={"kind": "bsde",
                     "driver": {"kind": "linear",
                                "c": {"breakpoints": [0.0],
                                      "values": [0.4]}}},
            tasks=[{"kind": "longevity", "t": 0.0, "u": 0.5, "v": 1.0,
                    "position": {"kind": "two_valued", "threshold": 0.0,
                                 "lo": -1.0, "hi": 1.0}}],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        rows = (out / "task00_longevity.csv").read_text().splitlines()
        assert rows[0] == "node,gamma,gamma_formula"
        _, gamma, formula = rows[1].split(",")
        assert float(gamma) == pytest.approx(0.2, abs=1e-9)
        assert float(formula) == pytest.approx(0.2, abs=1e-12)


class TestDeterminism:
    def _run_twice(self, path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_config(path, out_dir=out1) == EXIT_OK
        assert run_config(path, out_dir=out2) == EXIT_OK
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = base_config(
            model={"kind": "random_tree", "depth": 3, "max_branching": 3},
            tasks=[
                {"kind": "evaluate", "t": 0.0, "u": 1.0,
                 "position": {"kind": "uniform"}},
                {"kind": "axioms", "checks": ["cash_additive", "monotone"],
                 "samples": 6},
            ],
        )
        self._run_twice(write_config(tmp_path, cfg), tmp_path)

    def test_seed_override_changes_sampled_positions(self, tmp_path):
        cfg = base_config(
            model={"kind": "random_tree", "depth": 2, "max_branching": 2},
            tasks=[{"kind": "evaluate", "t": 0.0, "u": 1.0,
                    "position": {"kind": "uniform"}}],
        )
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_config(path, out_dir=out1, seed=1) == EXIT_OK
        assert run_config(path, out_dir=out2, seed=2) == EXIT_OK
        assert (out1 / "task00_evaluate.csv").read_text() != \
            (out2 / "task00_evaluate.csv").read_text()

    def test_no_leftover_temp_files(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run_config(path, out_dir=out) == EXIT_OK
        assert not list(out.glob("*.tmp"))


class TestSchema:
    @pytest.mark.parametrize("config", golden_configs(), ids=lambda p: p.stem)
    def test_shipped_and_golden_configs_validate(self, config):
        validate_config(config)

    def test_import_does_not_load_jsonschema(self):
        # configs are checked against the cli's tables, with no schema
        # library; the benchmark's set-up time includes importing the cli
        code = ("import sys\n"
                "import horizonrisk.cli\n"
                "assert 'jsonschema' not in sys.modules\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
