"""Tests for the command-line entry point."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathlq.cli import ConfigError, load_config, main
from pathlq.ledger import DisturbancePlan
from pathlq.model import GraphSpec
from pathlq.verify import Instance, certify_instance


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "schema_version": 1,
    "n": 3,
    "tau": [2, 1],
    "q": [1.0, 1.0, 1.0],
    "r": [1.0, 1.0, 1.0],
    "horizon": 3,
    "run_length": 30,
    "initial_z": [1.0, -0.5, 0.25],
    "disturbances": [
        {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": -0.3}
    ],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


class TestConfig:
    def test_load_round_trip(self, config_path):
        cfg = load_config(config_path)
        assert cfg["n"] == 3 and cfg["tau"] == [2, 1]

    def test_syntax_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n  "n": }')
        with pytest.raises(ConfigError, match=r"bad\.json:2:"):
            load_config(str(path))

    def test_missing_field_rejected(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        del cfg["tau"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="tau"):
            load_config(str(path))

    def test_wrong_schema_version_rejected(self, tmp_path):
        cfg = dict(BASE_CONFIG, schema_version=99)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(str(path))

    @pytest.mark.parametrize("command, change, message", [
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 5, "end_time": 4, "amount_per_step": -0.3}
        ]}, "start_time <= end_time"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": -1, "end_time": 4, "amount_per_step": -0.3}
        ]}, "0 <= start_time"),
        ("simulate", {"disturbances": [
            {"node": 0, "start_time": 2, "end_time": 4, "amount_per_step": -0.3}
        ]}, "node 0"),
        ("simulate", {"disturbances": [
            {"node": 4, "start_time": 2, "end_time": 4, "amount_per_step": -0.3}
        ]}, "node 4"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": float("nan")}
        ]}, "nan"),
        ("simulate", {"disturbances": [
            {"node": 1, "start_time": 40, "end_time": 40, "amount_per_step": 1.0}
        ]}, "horizon bound"),
        ("simulate", {"tau": [2.7, 1]}, "tau_1 = 2.7"),
        ("simulate", {"n": 5.5}, "n = 5.5"),
        ("simulate", {"horizon": 15.7}, "horizon = 15.7"),
        ("simulate", {"disturbances": [
            {"node": 2.5, "start_time": 2, "end_time": 4, "amount_per_step": -0.3}
        ]}, "node = 2.5"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2.5, "end_time": 4, "amount_per_step": -0.3}
        ]}, "start_time = 2.5"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4.9, "amount_per_step": -0.3}
        ]}, "end_time = 4.9"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": "abc"}
        ]}, "amount_per_step = 'abc'"),
        ("simulate", {"n": "5", "tau": "3254"}, "tau = '3254' is not a sequence"),
        ("simulate", {"tau": "21"}, "tau = '21' is not a sequence"),
        ("simulate", {"horizon": True}, "horizon = True must be a whole number"),
        ("simulate", {"disturbances": [
            {"node": "2", "start_time": 2, "end_time": 4, "amount_per_step": -0.3}
        ]}, "node = '2' must be a whole number"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": True, "end_time": 4, "amount_per_step": -0.3}
        ]}, "start_time = True must be a whole number"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": "4", "amount_per_step": -0.3}
        ]}, "end_time = '4' must be a whole number"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": "0.5"}
        ]}, "amount_per_step = '0.5' is not a number"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": False}
        ]}, "amount_per_step = False is not a number"),
        ("simulate", {"run_length": "10"}, "run_length = '10' must be a whole number"),
        ("simulate", {"run_length": True}, "run_length = True must be a whole number"),
        ("simulate", {"run_length": 10.7}, "run_length = 10.7"),
        ("simulate", {"run_length": -3}, "run_length = -3"),
        ("simulate", {"initial_z": [1.0, float("nan"), 0.25]},
         "initial z has a non-finite"),
        ("simulate", {"initial_pipelines": [[0.0, float("nan")], [0.0]]},
         "initial pipelines have a non-finite"),
        ("simulate", {"initial_z": ["abc", 0, 0.25]}, "initial state is not numeric"),
        ("simulate", {"initial_pipelines": [["x", 0.0], [0.0]]},
         "initial state is not numeric"),
        ("simulate", {"initial_z": ["0.5", 0, 0.25]}, "initial state is not numeric"),
        ("simulate", {"initial_z": [True, 0, 0.25]}, "initial state is not numeric"),
        ("simulate", {"initial_z": [0.5, True, 0.25]}, "initial state is not numeric"),
        ("simulate", {"initial_pipelines": [["0.1", 0.0], [0.0]]},
         "initial state is not numeric"),
        ("simulate", {"initial_pipelines": [[0.0, True], [0.0]]},
         "initial state is not numeric"),
        ("simulate", {"disturbances": 5}, "disturbances must be a list"),
        ("simulate", {"disturbances": None}, "disturbances must be a list"),
        ("simulate", {"disturbances": "abc"}, "disturbances must be a list"),
        ("simulate", {"disturbances": {
            "node": 2, "start_time": 2, "end_time": 4, "amount_per_step": -0.3
        }}, "disturbances must be a list"),
        ("simulate", {"disturbances": [5]}, "disturbances[0] must be an object"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": -0.3}, None
        ]}, "disturbances[1] must be an object"),
        ("sweep-horizon", {"horizon_grid": [2.5, 7.9]}, "horizon_grid[0] = 2.5"),
        ("sweep-horizon", {"horizon_grid": [-3]}, "horizon_grid = [-3]"),
        ("sweep-horizon", {"horizon_grid": [1, "2"]},
         "horizon_grid[1] = '2' must be a whole number"),
        ("verify", {"verify_instances": "3"}, "verify_instances = '3' must be a whole"),
        ("verify", {"verify_instances": True},
         "verify_instances = True must be a whole number"),
        ("verify", {"verify_instances": 3.7}, "verify_instances = 3.7"),
        ("verify", {"verify_instances": -2}, "verify_instances = -2"),
        ("distributed", {"seed": -1}, "seed = -1"),
        ("distributed", {"seed": 2.5}, "seed = 2.5"),
        ("distributed", {"seed": "abc"}, "seed = 'abc'"),
        ("distributed", {"seed": "1"}, "seed = '1' must be a whole number"),
        ("distributed", {"seed": False}, "seed = False must be a whole number"),
        ("distributed --no-feedforward", {},
         "distributed does not read --no-feedforward"),
        ("compare-ff --no-feedforward", {},
         "compare-ff does not read --no-feedforward"),
        ("distributed --tee-summary", {},
         "distributed does not read --tee-summary"),
        ("synth --tee-summary", {}, "synth does not read --tee-summary"),
        ("verify --horizon 2", {}, "verify does not read --horizon"),
        ("verify --horizon 0", {}, "verify does not read --horizon"),
        ("sweep-horizon --horizon 2", {}, "sweep-horizon does not read --horizon"),
        ("synth --seed 1", {}, "synth does not read --seed"),
        ("sweep-horizon --seed 1", {}, "sweep-horizon does not read --seed"),
        ("simulate", {"initial_Z": [1.0, 0.0, 0.0]}, "unknown field 'initial_Z'"),
        ("simulate", {"run_lenght": 3}, "unknown field 'run_lenght'"),
        ("verify", {"verify_instance": 3}, "unknown field 'verify_instance'"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": -0.3},
            {"nod": 2, "node": 2, "start_time": 2, "end_time": 4, "amount_per_step": 1}
        ]}, "disturbances[1]: unknown field 'nod'"),
        ("simulate", {"disturbances": [
            {"node": 2, "start_time": 2, "end_time": 4, "amount_per_step": -0.3,
             "amount": -0.3}
        ]}, "disturbances[0]: unknown field 'amount'"),
    ], ids=["start-after-end", "negative-start", "node-0", "node-past-n",
            "nan-amount", "past-horizon", "fractional-tau", "fractional-n",
            "fractional-horizon", "fractional-node", "fractional-start",
            "fractional-end", "non-numeric-amount", "text-n-and-tau", "text-tau",
            "bool-horizon", "text-node", "bool-start", "text-end", "text-amount",
            "bool-amount", "text-run-length", "bool-run-length",
            "fractional-run-length",
            "negative-run-length", "nan-initial-z", "nan-initial-pipelines",
            "non-numeric-initial-z", "non-numeric-initial-pipelines",
            "text-initial-z", "bool-initial-z", "mixed-bool-initial-z",
            "text-initial-pipelines", "bool-initial-pipelines",
            "number-disturbances", "null-disturbances", "text-disturbances",
            "object-disturbances", "number-disturbance", "null-disturbance",
            "fractional-horizon-grid", "negative-horizon-grid", "text-horizon-grid",
            "text-verify-instances", "bool-verify-instances",
            "fractional-verify-instances", "negative-verify-instances",
            "negative-seed", "fractional-seed", "non-numeric-seed", "text-seed",
            "bool-seed",
            "no-feedforward-on-distributed", "no-feedforward-on-compare-ff",
            "tee-summary-on-distributed", "tee-summary-on-synth",
            "horizon-on-verify", "zero-horizon-on-verify",
            "horizon-on-sweep-horizon", "seed-on-synth", "seed-on-sweep-horizon",
            "misspelt-initial-z", "misspelt-run-length", "misspelt-verify-instances",
            "misspelt-disturbance-node", "extra-disturbance-field"])
    def test_malformed_input_rejected(self, command, change, message, tmp_path,
                                      capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **change)))
        rc = main([*command.split(), "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("command, with_config", [
        ("verify", False), ("verify", True), ("distributed", True),
    ])
    def test_negative_seed_flag_rejected(self, command, with_config, config_path,
                                         tmp_path, capsys):
        config = ["--config", config_path] if with_config else []
        rc = main([command, *config, "--out", str(tmp_path), "--seed", "-1"])
        assert rc == 2
        assert "config error: --seed = -1 must be >= 0" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
    def test_config_that_is_not_an_object_rejected(self, text, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(text)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "config must be a JSON object" in capsys.readouterr().err


class TestSimulate:
    def test_trajectory_has_one_row_per_step_and_node(self, config_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", config_path, "--out", str(out)])
        assert rc == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == BASE_CONFIG["run_length"] * BASE_CONFIG["n"]
        assert set(rows[0]) == {
            "t", "node", "z", "u", "v", "d", "step_cost", "cum_cost",
        }
        # Node 1 has no downstream edge, so its flow column is always zero.
        assert all(float(r["u"]) == 0.0 for r in rows if r["node"] == "1")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_cost"] > 0.0

    def test_same_config_gives_bit_identical_outputs(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (
            out2 / "trajectory.csv"
        ).read_bytes()

    def test_no_feedforward_flag_costs_more_here(self, config_path, tmp_path):
        out_ff, out_blind = tmp_path / "ff", tmp_path / "blind"
        main(["simulate", "--config", config_path, "--out", str(out_ff)])
        main([
            "simulate", "--config", config_path, "--out", str(out_blind),
            "--no-feedforward",
        ])
        cost = lambda p: json.loads((p / "summary.json").read_text())["total_cost"]
        assert cost(out_blind) > cost(out_ff)


class TestOtherCommands:
    def test_synth_writes_params_document(self, config_path, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
        doc = json.loads((out / "params.json").read_text())
        assert doc["n"] == 3

    def test_compare_ff_prefers_advance_knowledge(self, config_path, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare-ff", "--config", config_path, "--out", str(out)]) == 0
        summary = json.loads((out / "compare_ff.json").read_text())
        assert summary["cost_feedforward"] < summary["cost_no_feedforward"]

    def test_sweep_horizon_includes_endpoints(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert main([
            "sweep-horizon", "--config", config_path, "--out", str(out),
        ]) == 0
        with open(out / "horizon_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        horizons = [int(r["horizon"]) for r in rows]
        assert horizons[0] == 0 and horizons[-1] >= 3  # sigma_N = 3
        costs = [float(r["total_cost"]) for r in rows]
        assert costs[-1] <= costs[0]

    def test_verify_passes_on_small_suite(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, verify_instances=5)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(cfg))
        rc = main([
            "verify", "--config", str(path), "--out", str(tmp_path), "--seed", "1",
        ])
        assert rc == 0
        assert "verify passed" in capsys.readouterr().out
        assert (tmp_path / "verify.csv").exists()

    def test_verify_honours_the_config_seed_under_the_flag(self, tmp_path, capsys):
        def run(name, config_seed, *flag):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                dict(BASE_CONFIG, verify_instances=3, seed=config_seed)))
            out = tmp_path / name
            assert main(["verify", "--config", str(path), "--out", str(out), *flag]) == 0
            return (out / "verify.csv").read_bytes(), capsys.readouterr().out

        from_config = run("config", 5)
        assert "3 instances, seed 5:" in from_config[1]
        assert from_config == run("flag", 0, "--seed", "5")
        assert from_config[0] != run("zero", 0)[0]
        assert run("over", 5, "--seed", "0") == run("zero", 0)

    def test_verify_rows_replay_their_instances(self, tmp_path):
        cfg = dict(BASE_CONFIG, verify_instances=8)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "verify.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        row = max(rows, key=lambda r: len(json.loads(r["plan"])))
        assert json.loads(row["plan"]), "no row with a plan entry"
        field = {k: json.loads(row[k]) for k in
                 ("tau", "q", "r", "horizon", "z0", "pipelines0", "plan")}
        spec = GraphSpec(n=int(row["n"]), tau=tuple(field["tau"]), q=tuple(field["q"]),
                         r=tuple(field["r"]), horizon=field["horizon"])
        inst = Instance(
            spec=spec,
            z0=np.array(field["z0"]),
            pipelines0=tuple(np.array(p, dtype=float) for p in field["pipelines0"]),
            plan=DisturbancePlan({tuple(key): d for key, d in field["plan"]}),
        )
        action_err, cost_err = certify_instance(inst)
        assert (repr(action_err), repr(cost_err)) == (
            row["action_rel_err"], row["cost_rel_err"])

    def test_verify_is_byte_identical_at_one_and_two_blas_threads(self, tmp_path):
        # The same config and seed give the same verify.csv, whatever the
        # BLAS thread count.
        cfg = dict(BASE_CONFIG, verify_instances=6)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(__file__).resolve().parent.parent / "src")
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "pathlq.cli", "verify", "--config", str(path),
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            reports.append((out / "verify.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_distributed_writes_clean_message_log(self, config_path, tmp_path):
        out = tmp_path / "dist"
        rc = main([
            "distributed", "--config", config_path, "--out", str(out),
            "--seed", "3",
        ])
        assert rc == 0
        with open(out / "messages.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(
            abs(int(r["from"]) - int(r["to"])) == 1 for r in rows
        )


class TestDemoConfigs:
    """Outputs of the demo configs, compared with those recorded before the
    closed-loop modes and the harness loop were merged into one driver."""

    @pytest.mark.parametrize("config, argv, output, key, expected", [
        ("feedforward_demo", ["simulate"], "summary.json", "total_cost",
         "0.1567095489949083"),
        ("feedforward_demo", ["simulate", "--no-feedforward"], "summary.json",
         "total_cost", "0.9434526222761717"),
        ("feedforward_demo", ["compare-ff"], "compare_ff.json",
         "cost_no_feedforward", "0.32569576949106577"),
        ("horizon_sweep_demo", ["simulate"], "summary.json", "total_cost",
         "1.4007534756518263"),
        ("horizon_sweep_demo", ["simulate", "--no-feedforward"], "summary.json",
         "total_cost", "2.391562431931868"),
    ])
    def test_costs(self, config, argv, output, key, expected, tmp_path):
        rc = main([*argv, "--config", str(CONFIG_DIR / f"{config}.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert repr(json.loads((tmp_path / output).read_text())[key]) == expected

    @pytest.mark.parametrize("config, messages", [
        ("feedforward_demo", 480),
        ("horizon_sweep_demo", 2160),
    ])
    def test_distributed_message_count(self, config, messages, tmp_path):
        # Full plan: the windows are built at t = 0 and time advances send
        # nothing, so every message is a sweep message, N-1 of each kind
        # per round.
        path = CONFIG_DIR / f"{config}.json"
        rc = main(["distributed", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "messages.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == messages
        cfg = json.loads(path.read_text())
        per_kind = (cfg["n"] - 1) * cfg["run_length"]
        kinds = {}
        for r in rows:
            kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        assert kinds == {"delta": per_kind, "mu": per_kind}

    @pytest.mark.parametrize("config, seed, digest", [
        ("feedforward_demo", 0,
         "c5cf6515b6efb7a45c1dd3ed50c913fdf904972f7eb9500d31f6ba85ce792308"),
        ("feedforward_demo", 3,
         "b8fd71b9b3a7e59890c22e3f376241a589b077e11c89402f318083b87522622c"),
        ("horizon_sweep_demo", 0,
         "1c0d3a4f104079cd90fdcf81bc33806bdd28bd893c68d1ad36c9ea75113c16de"),
        ("horizon_sweep_demo", 3,
         "316350cbc285559a94013c148e21208e1489492e8eb9821be9332790cb029d03"),
    ])
    def test_distributed_message_log_bytes(self, config, seed, digest, tmp_path):
        # The whole log, schedule order included: a --seed names one
        # scheduler draw sequence, so the file must not change.
        rc = main(["distributed", "--config", str(CONFIG_DIR / f"{config}.json"),
                   "--out", str(tmp_path), "--seed", str(seed)])
        assert rc == 0
        data = (tmp_path / "messages.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("config, digest", [
        ("feedforward_demo",
         "a6b59519d5adc7f6d0db23a353361a0647ff20b7598523a681efb680f253c817"),
        ("horizon_sweep_demo",
         "c61e18a6a147a704e3c78a581a24de7c5f9393dcbeb5b4273e29a27ee8f6a059"),
    ])
    def test_synth_params_bytes(self, config, digest, tmp_path):
        # Every synthesized coefficient, as written: a change to how the
        # tables are stored must not change a digit.
        rc = main(["synth", "--config", str(CONFIG_DIR / f"{config}.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        data = (tmp_path / "params.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
