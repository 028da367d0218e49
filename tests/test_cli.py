import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dist
from stability_lab import (
    ContentDomain,
    NflWitness,
    TransformConfig,
    dp_transform_trace,
    learner_empirical,
    load_dataset,
    write_distribution,
)
from stability_lab import cli, core, dp
from stability_lab.cli import entrypoint, main
from stability_lab.errors import ConfigError
from stability_lab.util import derive_seed


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def dist_file(tmp_path, name, weights):
    path = tmp_path / name
    write_distribution(path, dist(weights))
    return str(path)


def fields_of(subcommand, config_obj):
    """The fields of a config shared by several subcommands that `subcommand`
    reads; it refuses any other."""
    return {k: v for k, v in config_obj.items() if k in cli._SUBCOMMANDS[subcommand][1]}


def run_cli(tmp_path, subcommand, config_obj, extra=()):
    cfg = write_config(tmp_path, f"{subcommand}-cfg.json", config_obj)
    out = tmp_path / f"{subcommand}-report.json"
    code = main([subcommand, "--config", cfg, "--out", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestTv:
    def test_identical_files_zero(self, tmp_path):
        p = dist_file(tmp_path, "p.json", [0.25, 0.75])
        code, report = run_cli(tmp_path, "tv", {"q1": p, "q2": p})
        assert code == 0
        assert report["payload"]["tv"] == 0.0
        assert report["schema"] == "1"
        assert report["passed"] is True

    def test_inline_distributions(self, tmp_path):
        spec = {"symbols": ["a", "b"], "weights": [0.8, 0.2]}
        other = {"symbols": ["a", "b"], "weights": [0.2, 0.8]}
        code, report = run_cli(tmp_path, "tv", {"q1": spec, "q2": other})
        assert code == 0
        assert report["payload"]["tv"] == pytest.approx(0.6)
        assert report["payload"]["event_form"]["event"] == ["a"]

    def test_mismatched_domains_error(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "tv",
            {
                "q1": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
                "q2": {"symbols": ["a", "c"], "weights": [0.5, 0.5]},
            },
        )
        assert code == 1


class TestEventForm:
    """tv and dp-beta report the maximizing event at every domain size."""

    def pair(self, size):
        symbols = [f"s{i}" for i in range(size)]
        weights = [2.0 * (i + 1) / (size * (size + 1)) for i in range(size)]
        return (
            {"symbols": symbols, "weights": weights},
            {"symbols": symbols, "weights": weights[::-1]},
        )

    @pytest.mark.parametrize("size", [20, 21, 25, 5000])
    def test_event_form_at_every_size(self, tmp_path, size):
        # the event is the symbols with p > e^alpha * p': those past the
        # middle at alpha = 0, s14..s24 of 25 at alpha = 0.2
        q1, q2 = self.pair(size)
        code, report = run_cli(tmp_path, "tv", {"q1": q1, "q2": q2})
        form = report["payload"]["event_form"]
        assert code == 0 and form["event"] == q1["symbols"][(size + 1) // 2 :]
        assert abs(form["value"] - report["payload"]["tv"]) <= 1e-12
        cfg = {"p": q1, "p_prime": q2, "alpha": 0.2, "alpha_grid": [0.0, 0.5]}
        code, report = run_cli(tmp_path, "dp-beta", cfg)
        assert code == 0 and report["payload"]["event_form"] is not None
        if size == 25:
            assert report["payload"]["event_form"]["event"] == q1["symbols"][14:]
        curve = report["payload"]["curve"]
        assert len(curve) == 2
        assert all(abs(point["beta_event_form"] - point["beta"]) <= 1e-12 for point in curve)


class TestNafCheck:
    def config(self, tmp_path, alpha):
        return {
            "model": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
            "safe_models": [
                {"id": "doc1", "model": {"symbols": ["a", "b"], "weights": [0.25, 0.75]}}
            ],
            "alpha": alpha,
        }

    def test_below_alpha_star_flags_and_exits_2(self, tmp_path):
        code, report = run_cli(tmp_path, "naf-check", self.config(tmp_path, 0.5))
        assert code == 2
        payload = report["payload"]
        assert payload["ok"] is False
        assert payload["violations"][0]["content_id"] == "doc1"
        assert payload["violations"][0]["symbol"] == "a"
        assert payload["alpha_star"] == pytest.approx(math.log(2))
        assert report["passed"] is False

    def test_above_alpha_star_passes(self, tmp_path):
        code, report = run_cli(tmp_path, "naf-check", self.config(tmp_path, 0.7))
        assert code == 0
        assert report["payload"]["ok"] is True

    def test_csv_header(self, tmp_path):
        cfg_path = write_config(tmp_path, "cfg.json", self.config(tmp_path, 0.5))
        csv_path = tmp_path / "violations.csv"
        code = main(["naf-check", "--config", cfg_path, "--out", str(tmp_path / "r.json"),
                     "--csv", str(csv_path)])
        assert code == 2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "content_id,symbol,log_ratio"
        assert lines[1].startswith("doc1,a,")

    def test_csv_header_without_violations(self, tmp_path):
        cfg_path = write_config(tmp_path, "cfg.json", self.config(tmp_path, 0.7))
        csv_path = tmp_path / "violations.csv"
        code = main(["naf-check", "--config", cfg_path, "--out", str(tmp_path / "r.json"),
                     "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.read_bytes() == b"content_id,symbol,log_ratio\r\n"

    def test_infinite_alpha_star_serialized(self, tmp_path):
        cfg = {
            "model": {"symbols": ["a", "b"], "weights": [0.0, 1.0]},
            "safe_models": [{"symbols": ["a", "b"], "weights": [1.0, 0.0]}],
            "alpha": 2.0,
        }
        code, report = run_cli(tmp_path, "naf-check", cfg)
        assert code == 2
        assert report["payload"]["alpha_star"] == "inf"


class TestNflCheck:
    def test_witness_found(self, tmp_path):
        cfg = {
            "model": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
            "q1": {"symbols": ["a", "b"], "weights": [0.8, 0.2]},
            "q2": {"symbols": ["a", "b"], "weights": [0.2, 0.8]},
        }
        code, report = run_cli(tmp_path, "nfl-check", cfg)
        assert code == 0
        assert report["payload"]["satisfied"] is True
        assert report["payload"]["witness"]["threshold"] == pytest.approx(0.25)

    def test_short_witness_exits_2(self, tmp_path, monkeypatch):
        # the verdict is the witness's own: NflWitness.satisfied
        short = NflWitness("a", 0.25 - 1.1e-12, 0.25)
        monkeypatch.setattr(cli, "nfl_witness", lambda p, q1, q2: short)
        cfg = {
            "model": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
            "q1": {"symbols": ["a", "b"], "weights": [0.8, 0.2]},
            "q2": {"symbols": ["a", "b"], "weights": [0.2, 0.8]},
        }
        code, report = run_cli(tmp_path, "nfl-check", cfg)
        assert code == 2 and report["payload"]["satisfied"] is False

    def test_degenerate_tv_is_an_error(self, tmp_path):
        cfg = {
            "model": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
            "q1": {"symbols": ["a", "b"], "weights": [1.0, 0.0]},
            "q2": {"symbols": ["a", "b"], "weights": [0.0, 1.0]},
        }
        code, _ = run_cli(tmp_path, "nfl-check", cfg)
        assert code == 1


class TestCensorship:
    def test_deficit(self, tmp_path):
        cfg = {
            "safe_models": [
                {"symbols": ["a", "b"], "weights": [0.8, 0.2]},
                {"symbols": ["a", "b"], "weights": [0.2, 0.8]},
            ],
            "alpha": 0.5,
        }
        code, report = run_cli(tmp_path, "censorship", cfg)
        assert code == 0
        assert report["payload"]["deficit"] == pytest.approx(1 - math.exp(0.5) * 0.4)


class TestDpBeta:
    def test_beta_at_zero_is_tv(self, tmp_path):
        cfg = {
            "p": {"symbols": ["a", "b"], "weights": [0.75, 0.25]},
            "p_prime": {"symbols": ["a", "b"], "weights": [0.25, 0.75]},
            "alpha": 0.0,
        }
        code, report = run_cli(tmp_path, "dp-beta", cfg)
        assert code == 0
        assert report["payload"]["beta"] == pytest.approx(0.5)
        assert report["payload"]["event_form"]["value"] == pytest.approx(0.5)

    def test_curve_csv(self, tmp_path):
        cfg = {
            "p": {"symbols": ["a", "b"], "weights": [0.75, 0.25]},
            "p_prime": {"symbols": ["a", "b"], "weights": [0.25, 0.75]},
            "alpha": 0.0,
            "alpha_grid": [0.0, 0.5, 1.0, math.log(3)],
        }
        csv_path = tmp_path / "curve.csv"
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        code = main(
            ["dp-beta", "--config", cfg_path, "--out", str(tmp_path / "r.json"),
             "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 grid points
        assert lines[0].startswith("alpha,")


class TestHist:
    def test_report(self, tmp_path):
        data = tmp_path / "sample.txt"
        data.write_text("a\n" * 30 + "b\n" * 10)
        cfg = {
            "dataset": str(data),
            "epsilon": 5.0,
            "delta": 1e-4,
            "seed": 3,
        }
        code, report = run_cli(tmp_path, "hist", cfg)
        assert code == 0
        payload = report["payload"]
        assert payload["k"] == 40
        assert set(payload["values"]) <= {"a", "b"}
        assert payload["empirical"]["a"] == pytest.approx(0.75)

    def test_explicit_domain_keeps_absent_symbols(self, tmp_path):
        data = tmp_path / "sample.txt"
        data.write_text("a\na\n")
        cfg = {
            "dataset": str(data),
            "domain": {"symbols": ["a", "b", "c"]},
            "epsilon": 5.0,
            "delta": 1e-4,
        }
        code, report = run_cli(tmp_path, "hist", cfg)
        assert code == 0
        assert "b" not in report["payload"]["values"]


class TestByteOrderMark:
    """A JSON file may start with a UTF-8 byte-order mark, as a corpus may."""

    BOM = b"\xef\xbb\xbf"

    def write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_bytes(self.BOM + json.dumps(obj).encode())
        return str(path)

    def test_config_and_distribution_files(self, tmp_path):
        q1 = self.write(tmp_path, "q1.json", {"symbols": ["a", "b"], "weights": [0.5, 0.5]})
        q2 = {"symbols": ["a", "b"], "weights": [0.25, 0.75]}
        cfg = self.write(tmp_path, "cfg.json", {"q1": q1, "q2": q2})
        out = tmp_path / "report.json"
        assert main(["tv", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["tv"] == 0.25

    def test_domain_file(self, tmp_path):
        data = tmp_path / "sample.txt"
        data.write_text("a\na\n")
        domain = self.write(tmp_path, "domain.json", {"symbols": ["a", "b"]})
        cfg = {"dataset": str(data), "domain": domain, "epsilon": 5.0, "delta": 1e-4}
        code, report = run_cli(tmp_path, "hist", cfg)
        assert code == 0 and report["payload"]["empirical"] == {"a": 1.0}

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"{not json"], ids=["not-utf8", "not-json"])
    def test_bad_content_after_a_mark(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(self.BOM + content)
        assert main(["tv", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot read"), err
        assert "Traceback" not in err


class TestTransform:
    def config(self, tmp_path, n_items):
        data = tmp_path / "private.txt"
        rng = np.random.default_rng(0)
        symbols = [f"s{i}" for i in range(4)]
        data.write_text("\n".join(rng.choice(symbols, size=n_items)) + "\n")
        return {
            "dataset": str(data),
            "domain": {"symbols": symbols},
            "learner": {"kind": "empirical", "smoothing": 1.0},
            "epsilon": 2.0,
            "delta": 0.05,
            "eta": 0.3,
            "m": 3,
            "seed": 5,
        }

    def test_runs(self, tmp_path):
        config = TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.3, m=3)
        cfg = self.config(tmp_path, config.m_priv)
        code, report = run_cli(tmp_path, "transform", cfg)
        assert code == 0
        weights = report["payload"]["output"]["weights"]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert report["payload"]["k"] == config.k

    def test_wrong_size_errors(self, tmp_path):
        cfg = self.config(tmp_path, 7)
        code, _ = run_cli(tmp_path, "transform", cfg)
        assert code == 1

    def test_constant_model_on_foreign_domain_errors(self, tmp_path, capsys):
        config = TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.3, m=3)
        cfg = self.config(tmp_path, config.m_priv)
        foreign = {"symbols": ["x0", "x1", "x2", "x3"], "weights": [0.25] * 4}
        cfg["learner"] = {"kind": "constant", "model": foreign}
        code, report = run_cli(tmp_path, "transform", cfg)
        assert code == 1 and report is None
        assert "model: distribution symbols do not match" in capsys.readouterr().err

    def test_tape_seed_field_pins_the_tape(self, tmp_path):
        # the config field is the one way to pin the tape; the noise and
        # training seeds still derive from the run's seed, 5
        config = TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.3, m=3)
        cfg = {**self.config(tmp_path, config.m_priv), "tape_seed": 314}
        code, report = run_cli(tmp_path, "transform", cfg)
        assert code == 0
        payload = report["payload"]
        assert payload["tape_seed"] == report["config"]["tape_seed"] == 314
        dataset = load_dataset(cfg["dataset"], ContentDomain(cfg["domain"]["symbols"]))
        trace = dp_transform_trace(
            learner_empirical(1.0),
            dataset,
            config,
            tape_seed=314,
            noise_seed=derive_seed(5, "noise"),
            train_seed=derive_seed(5, "train"),
        )
        expected = json.loads(json.dumps(
            {"histogram": trace.histogram.to_json_obj(), "output": trace.output.to_json_obj()}
        ))
        assert {key: payload[key] for key in expected} == expected


class TestProp1:
    def config(self):
        return {
            "data_distribution": {
                "symbols": ["a", "b", "c", "d"],
                "weights": [0.4, 0.3, 0.2, 0.1],
            },
            "learner": {"kind": "empirical", "smoothing": 1.0},
            "epsilon": 2.0,
            "delta": 0.05,
            "eta": 0.3,
            "m": 3,
            "outer_trials": 2,
            "inner_trials": 15,
            "premise_trials": 20,
            "seed": 9,
        }

    def test_pass(self, tmp_path):
        code, report = run_cli(tmp_path, "prop1", self.config())
        assert code == 0
        payload = report["payload"]
        assert payload["passed"] is True
        assert payload["grand_mean_tv"] <= payload["bound"] + payload["margin"]
        assert len(payload["per_trial_tv"]) == 2

    def test_csv_per_trial(self, tmp_path):
        cfg_path = write_config(tmp_path, "cfg.json", self.config())
        csv_path = tmp_path / "trials.csv"
        code = main(
            ["prop1", "--config", cfg_path, "--out", str(tmp_path / "r.json"),
             "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,tv" and len(lines) == 3


class TestIngest:
    def test_counts(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("b\na\nb\n")
        code, report = run_cli(tmp_path, "ingest", {"corpus": str(corpus)})
        assert code == 0
        assert report["payload"]["counts"] == {"a": 1, "b": 2}

    def test_missing_file(self, tmp_path):
        code, _ = run_cli(tmp_path, "ingest", {"corpus": str(tmp_path / "nope.txt")})
        assert code == 1


class TestHarnessContract:
    def test_reproducible_payload(self, tmp_path):
        cfg = {
            "q1": {"symbols": ["a", "b"], "weights": [0.7, 0.3]},
            "q2": {"symbols": ["a", "b"], "weights": [0.3, 0.7]},
            "seed": 4,
        }
        _, first = run_cli(tmp_path, "tv", cfg)
        _, second = run_cli(tmp_path, "tv", cfg)
        for report in (first, second):
            report.pop("wall_clock_s")
        assert first == second

    def test_non_finite_payload_values_written_as_strings(self, tmp_path):
        # a safe model with no mass on a symbol that the model puts mass on
        # gives alpha_star, feasibility_alpha and a violation's log ratio of
        # +inf; the report writes each as the string "inf", not Infinity
        cfg = {
            "model": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
            "safe_models": [{"symbols": ["a", "b"], "weights": [1.0, 0.0]},
                            {"symbols": ["a", "b"], "weights": [0.0, 1.0]}],
            "alpha": 1.0,
        }
        out = tmp_path / "r.json"
        assert main(["naf-check", "--config", write_config(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 2
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        payload = json.loads(text)["payload"]
        assert payload["alpha_star"] == payload["feasibility_alpha"] == "inf"
        assert [v["log_ratio"] for v in payload["violations"]] == ["inf", "inf"]

    def test_seed_flag_overrides_config(self, tmp_path):
        data = tmp_path / "sample.txt"
        data.write_text("a\n" * 10 + "b\n" * 10)
        cfg = {"dataset": str(data), "epsilon": 1.0, "delta": 1e-3, "seed": 1}
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
        main(["hist", "--config", cfg_path, "--out", str(out1)])
        main(["hist", "--config", cfg_path, "--out", str(out2), "--seed", "1"])
        main(["hist", "--config", cfg_path, "--out", str(out3), "--seed", "99"])
        r1, r2, r3 = (json.loads(p.read_text())["payload"] for p in (out1, out2, out3))
        assert r1 == r2
        assert r1 != r3 or json.loads(out1.read_text())["seed"] != 99

    def test_config_error_paths(self, tmp_path):
        # missing required field
        code, _ = run_cli(tmp_path, "tv", {"q1": {"symbols": ["a"], "weights": [1.0]}})
        assert code == 1
        # malformed JSON
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["tv", "--config", str(bad)]) == 1
        # missing config file
        assert main(["tv", "--config", str(tmp_path / "ghost.json")]) == 1
        # bad learner kind
        code, _ = run_cli(
            tmp_path,
            "prop1",
            {**TestProp1().config(), "learner": {"kind": "oracle"}},
        )
        assert code == 1
        # out-of-range parameter
        code, _ = run_cli(tmp_path, "prop1", {**TestProp1().config(), "eta": 1.5})
        assert code == 1

    def test_no_global_rng_consumption(self, tmp_path):
        state_before = np.random.get_state()[1].copy()
        import random

        py_state = random.getstate()
        cfg = self.reusable_hist_cfg(tmp_path)
        code, _ = run_cli(tmp_path, "hist", cfg)
        assert code == 0
        assert np.array_equal(np.random.get_state()[1], state_before)
        assert random.getstate() == py_state

    def test_unseeded_rng_never_requested(self, tmp_path, monkeypatch):
        real = np.random.default_rng

        def strict_rng(seed=None):
            assert seed is not None, "an operation requested OS entropy"
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", strict_rng)
        code, _ = run_cli(tmp_path, "hist", self.reusable_hist_cfg(tmp_path))
        assert code == 0

    @staticmethod
    def reusable_hist_cfg(tmp_path):
        data = tmp_path / "sample.txt"
        data.write_text("a\n" * 12 + "b\n" * 8)
        return {"dataset": str(data), "epsilon": 1.0, "delta": 1e-3, "seed": 2}

    def test_prop1_failed_bound_exits_2(self, tmp_path, monkeypatch):
        import stability_lab.cli as cli_mod

        class FailingReport:
            alpha_hat = 0.0
            grand_mean_tv = 0.9
            bound = 0.1
            per_trial_tv = (0.9,)

            def within_bound(self, margin):
                return False

            def to_json_obj(self):
                return {"grand_mean_tv": 0.9, "bound": 0.1, "per_trial_tv": [0.9]}

        monkeypatch.setattr(
            cli_mod, "transform_bound_experiment", lambda *a, **k: FailingReport()
        )
        code, report = run_cli(tmp_path, "prop1", TestProp1().config())
        assert code == 2
        assert report["passed"] is False

    def test_console_entry_point(self, tmp_path):
        cfg = {
            "q1": {"symbols": ["a"], "weights": [1.0]},
            "q2": {"symbols": ["a"], "weights": [1.0]},
        }
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "stability_lab", "tv", "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["tv"] == 0.0

    # argparse's usage errors exit 1, as every error does (exit 2 means a
    # failed check), and its help exits 0
    USAGE = {
        "no-config": (["prop1"], 1),
        "unknown-subcommand": (["histogram", "--config", "cfg.json"], 1),
        "seed-not-integer": (["hist", "--config", "cfg.json", "--seed", "abc"], 1),
        "unknown-flag": (["tv", "--config", "cfg.json", "--verbose"], 1),
        "tape-seed-flag": (["transform", "--config", "cfg.json", "--tape-seed", "3"], 1),
        "help": (["-h"], 0),
        "subcommand-help": (["transform", "--help"], 0),
    }

    @pytest.mark.parametrize("argv, code", USAGE.values(), ids=USAGE)
    def test_usage_exit_code(self, capsys, monkeypatch, argv, code):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert (err if code else out).startswith("usage: stability-lab")
        assert "Traceback" not in err
        monkeypatch.setattr(sys, "argv", ["stability-lab", *argv])
        with pytest.raises(SystemExit) as info:
            entrypoint()
        assert info.value.code == code

    # One config per exit code: a pass, an error, and a failed check.
    EXIT_CASES = {
        0: ("tv", {"q1": {"symbols": ["a"], "weights": [1.0]},
                   "q2": {"symbols": ["a"], "weights": [1.0]}}),
        1: ("tv", {"q1": {"symbols": ["a"], "weights": [1.0]}}),
        2: ("naf-check", {"model": {"symbols": ["a", "b"], "weights": [0.5, 0.5]},
                          "safe_models": [{"symbols": ["a", "b"], "weights": [0.25, 0.75]}],
                          "alpha": 0.5}),
    }

    @pytest.mark.parametrize("code", sorted(EXIT_CASES))
    def test_module_exit_code_propagates(self, tmp_path, code):
        subcommand, cfg = self.EXIT_CASES[code]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "stability_lab", subcommand, "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: q2:") if code == 1 else not proc.stderr

    @pytest.mark.parametrize("code", sorted(EXIT_CASES))
    def test_entrypoint_exits_with_main_code(self, tmp_path, monkeypatch, code):
        import stability_lab.cli as cli_mod

        subcommand, cfg = self.EXIT_CASES[code]
        argv = [subcommand, "--config", write_config(tmp_path, "cfg.json", cfg),
                "--out", str(tmp_path / "report.json")]
        monkeypatch.setattr(sys, "argv", ["stability-lab", *argv])
        with pytest.raises(SystemExit) as info:
            cli_mod.entrypoint()
        assert info.value.code == code


class TestConfigErrorContract:
    """A bad config field exits 1 with `error: <field>:` and no traceback."""

    @staticmethod
    def assert_rejected(tmp_path, capsys, subcommand, cfg, field):
        code, report = run_cli(tmp_path, subcommand, cfg)
        err = capsys.readouterr().err
        assert code == 1 and report is None
        assert err.startswith(f"error: {field}:"), err
        assert "Traceback" not in err
        return err

    @staticmethod
    def hist_config(tmp_path, **fields):
        data = tmp_path / "sample.txt"
        data.write_text("a\nb\na\n")
        return {"dataset": str(data), "epsilon": 1.0, "delta": 1e-3, **fields}

    @pytest.mark.parametrize(
        "domain_file, inline",
        [
            ("{not json", None),
            ('{"names": ["a", "b"]}', None),
            ('{"symbols": []}', None),
            ('{"symbols": ["a", "a"]}', None),
            (None, {"symbols": 5}),
        ],
    )
    def test_malformed_domain(self, tmp_path, capsys, domain_file, inline):
        if domain_file is not None:
            path = tmp_path / "domain.json"
            path.write_text(domain_file)
            inline = str(path)
        cfg = self.hist_config(tmp_path, domain=inline)
        if domain_file and "names" in domain_file:
            field = "domain.names"
        elif isinstance(inline, dict):  # a wrong JSON type is named at its key
            field = "domain.symbols"
        else:
            field = "domain"
        self.assert_rejected(tmp_path, capsys, "hist", cfg, field)

    @pytest.mark.parametrize(
        "subcommand, field, value",
        [
            ("prop1", "m", True),
            ("hist", "epsilon", "1"),
            ("dp-beta", "alpha_grid", [0.1, -1]),
            ("ingest", "tokenization", "char"),
            ("hist", "delta", 1),
        ],
    )
    def test_bad_field(self, tmp_path, capsys, subcommand, field, value):
        base = {
            "prop1": TestProp1().config(),
            "hist": self.hist_config(tmp_path),
            "dp-beta": {
                "p": {"symbols": ["a", "b"], "weights": [0.75, 0.25]},
                "p_prime": {"symbols": ["a", "b"], "weights": [0.25, 0.75]},
                "alpha": 0.0,
            },
            "ingest": {"corpus": self.hist_config(tmp_path)["dataset"]},
        }[subcommand]
        # a bad list entry is named by its index
        where = "alpha_grid[1]" if field == "alpha_grid" else field
        self.assert_rejected(tmp_path, capsys, subcommand, {**base, field: value}, where)

    @pytest.mark.parametrize("subcommand", ["hist", "prop1"])
    def test_epsilon_whose_geometric_p_rounds_to_zero(self, tmp_path, capsys, subcommand):
        # 1 - e^(-epsilon/2) rounds to 0 at epsilon = 1e-16, where numpy's
        # geometric raised a bare ValueError with a traceback.
        base = {"hist": self.hist_config(tmp_path, seed=7), "prop1": TestProp1().config()}
        cfg = {**base[subcommand], "epsilon": 1e-16}
        err = self.assert_rejected(tmp_path, capsys, subcommand, cfg, "epsilon")
        assert "1 - e^(-epsilon/2)" in err
        if subcommand == "hist":
            code, report = run_cli(tmp_path, "hist", {**cfg, "epsilon": 1.2e-16})
            assert code == 0 and report["payload"]["epsilon"] == 1.2e-16

    @pytest.mark.parametrize(
        "subcommand, field",
        [("tv", "q1"), ("naf-check", "safe_models[0]"), ("prop1", "data_distribution")],
    )
    def test_weight_too_large_for_a_float(self, tmp_path, capsys, subcommand, field):
        # A JSON integer weight above DBL_MAX raised OverflowError out of
        # the distribution's float conversion.
        huge = {"symbols": ["a", "b"], "weights": [10**400, 0]}
        good = {"symbols": ["a", "b"], "weights": [0.5, 0.5]}
        cfg = {
            "tv": {"q1": huge, "q2": good},
            "naf-check": {"model": good, "safe_models": [huge], "alpha": 0.5},
            "prop1": {**TestProp1().config(), "data_distribution": huge},
        }[subcommand]
        err = self.assert_rejected(tmp_path, capsys, subcommand, cfg, field)
        assert err == f"error: {field}: int too large to convert to float\n"

    @pytest.mark.parametrize("subcommand, field", [
        ("hist", "dataset"), ("transform", "dataset"), ("ingest", "corpus"),
    ])
    @pytest.mark.parametrize("content", [b"\xff\xfe", None], ids=["not-utf8", "directory"])
    def test_unreadable_text_file(self, tmp_path, capsys, subcommand, field, content):
        if content is None:
            path = "."  # a directory exists but cannot be read as text
        else:
            path = tmp_path / "corpus.txt"
            path.write_bytes(content)
        base = {
            "hist": self.hist_config(tmp_path),
            "transform": {
                **self.hist_config(tmp_path), "eta": 0.3, "m": 1,
                "learner": {"kind": "empirical", "smoothing": 1.0},
            },
            "ingest": {},
        }[subcommand]
        cfg = {**base, field: str(path)}
        self.assert_rejected(tmp_path, capsys, subcommand, cfg, field)

    def test_dataset_line_outside_the_domain(self, tmp_path, capsys):
        # A readable file whose content is rejected names its field, too.
        cfg = self.hist_config(tmp_path, domain={"symbols": ["a"]})
        err = self.assert_rejected(tmp_path, capsys, "hist", cfg, "dataset")
        assert err == "error: dataset: symbol 'b' is not in the domain\n"

    def test_blank_only_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "blank.txt"
        corpus.write_text("\n  \n\t\n")
        err = self.assert_rejected(tmp_path, capsys, "ingest", {"corpus": str(corpus)}, "corpus")
        assert err == f"error: corpus: no tokens found in {corpus}\n"

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe", b"{not json", b"[1]", None, "."],
        ids=["not-utf8", "not-json", "not-an-object", "missing", "directory"],
    )
    def test_unreadable_config(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content == ".":
            path = "."
        elif content is not None:
            path.write_bytes(content)
        assert main(["tv", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["naf-check", "censorship", "dp-beta"])
    @pytest.mark.parametrize(
        "alpha, code",
        [(709.782712893384, 0), (math.nextafter(709.782712893384, math.inf), 1),
         (1000, 1), (math.inf, 1)],
    )
    def test_alpha_range(self, tmp_path, capsys, subcommand, alpha, code):
        # ln(DBL_MAX) is the largest alpha whose e^alpha is finite; above
        # it the library's exp raised a bare OverflowError
        model = {"symbols": ["a", "b"], "weights": [0.25, 0.75]}
        cfg = fields_of(subcommand, {"model": model, "safe_models": [model], "p": model,
                                     "p_prime": model, "alpha": alpha})
        if code == 0:
            assert run_cli(tmp_path, subcommand, cfg)[0] == 0
        else:
            self.assert_rejected(tmp_path, capsys, subcommand, cfg, "alpha")

    @pytest.mark.parametrize("symbols", ["ab", [1, 2]])
    def test_symbols_not_a_list_of_strings(self, tmp_path, capsys, symbols):
        at = "symbols" if isinstance(symbols, str) else "symbols[0]"  # a list names its entry
        cfg = self.hist_config(tmp_path, domain={"symbols": symbols})
        self.assert_rejected(tmp_path, capsys, "hist", cfg, f"domain.{at}")
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"symbols": symbols, "weights": [0.5, 0.5]}))
        self.assert_rejected(tmp_path, capsys, "tv", {"q1": str(q), "q2": str(q)}, f"q1.{at}")

    @pytest.mark.parametrize("weights", [["0.5", "0.5"], [True, False]])
    def test_weights_not_a_list_of_numbers(self, tmp_path, capsys, weights):
        q = {"symbols": ["a", "b"], "weights": weights}
        good = {"symbols": ["a", "b"], "weights": [0.5, 0.5]}
        self.assert_rejected(tmp_path, capsys, "tv", {"q1": q, "q2": good}, "q1.weights[0]")

    @pytest.mark.parametrize("subcommand", ["naf-check", "censorship"])
    @pytest.mark.parametrize(
        "ids",
        [("doc1", "doc1"), (None, "doc2"), (["x"], "doc2"), (7, "doc2"), ("c1", "doc2")],
        ids=["duplicate", "null", "list", "number", "clashes-with-default"],
    )
    def test_bad_safe_model_ids(self, tmp_path, capsys, subcommand, ids):
        model = {"symbols": ["a", "b"], "weights": [0.25, 0.75]}
        entries = [{"id": cid, "model": model} for cid in ids]
        if ids[0] == "c1":
            entries[1] = model  # an entry without an id is named c1
        cfg = fields_of(subcommand, {"model": model, "safe_models": entries, "alpha": 0.5})
        # an id that is not a string is named by its path; a clash by the list
        field = "safe_models" if isinstance(ids[0], str) else "safe_models[0].id"
        self.assert_rejected(tmp_path, capsys, subcommand, cfg, field)

    @pytest.mark.parametrize("subcommand", ["naf-check", "censorship"])
    @pytest.mark.parametrize("wrapped", [True, False], ids=["id-and-model", "bare"])
    def test_bad_safe_model_named_by_entry(self, tmp_path, capsys, subcommand, wrapped):
        model = {"symbols": ["a", "b"], "weights": [0.25, 0.75]}
        bad = {"symbols": ["a", "b"], "weights": [1.25, -0.25]}
        second = {"id": "doc2", "model": bad} if wrapped else bad
        cfg = fields_of(subcommand, {"model": model, "alpha": 0.5,
                                     "safe_models": [{"id": "doc1", "model": model}, second]})
        field = "safe_models[1].model" if wrapped else "safe_models[1]"
        self.assert_rejected(tmp_path, capsys, subcommand, cfg, field)


class TestFieldRules:
    """Each scalar config field names its library rule, and a value out of
    range is refused with that rule's own message after the field's name."""

    def test_rules_are_the_library_functions(self):
        # field -> (the library rule, one value it refuses); a seed has none.
        rules = {
            "alpha": (core._require_alpha, -1.0),
            "margin": (core._require_nonnegative, math.inf),
            "smoothing": (core._require_nonnegative, -0.5),
            "epsilon": (dp._require_epsilon, 1e-16),
            "delta": (core._require_fraction, 1.5),
            "eta": (core._require_fraction, 0),
            "m": (core._require_count, 0),
            "outer_trials": (core._require_count, -2),
            "inner_trials": (core._require_count, 2**70),
            "premise_trials": (core._require_count, 0),
            "seed": (None, None),
            "tape_seed": (None, None),
            "tokenization": (core._require_tokenization, "char"),
        }
        assert set(cli._RULES) == set(rules)
        for field, (kind, rule) in cli._RULES.items():
            want, bad = rules[field]
            assert rule is want, field
            if rule is None:
                continue
            with pytest.raises(ValueError) as library:
                rule(field, float(bad) if kind == "a number" else bad)
            with pytest.raises(ConfigError) as config:
                cli._check(field, bad, field)
            assert str(config.value) == f"{field}: {library.value}"

    @pytest.mark.parametrize(
        "field, raw, expected",
        [
            ("delta", "0.5", "a number"),
            ("alpha", True, "a number"),
            ("m", 3.0, "an integer"),
            ("outer_trials", "3", "an integer"),
            ("tokenization", 3, "a string"),
        ],
    )
    def test_wrong_json_type(self, field, raw, expected):
        with pytest.raises(ConfigError) as info:
            cli._check(field, raw, field)
        assert str(info.value) == f"{field}: expected {expected}, got {raw!r}"


class Reads(dict):
    """A config that records every top-level field a runner looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.looked_up = set()

    def __contains__(self, key):
        self.looked_up.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)


class TestConfigFields:
    """Each subcommand reads exactly the fields _SUBCOMMANDS names, and run
    refuses any other (apart from "seed") before it reads anything."""

    @staticmethod
    def passing(tmp_path, subcommand):
        two = {"symbols": ["a", "b"], "weights": [0.75, 0.25]}
        other = {"symbols": ["a", "b"], "weights": [0.25, 0.75]}
        transform = TestTransform().config(tmp_path, 73 * 3)
        return {
            "tv": {"q1": two, "q2": other},
            "naf-check": {"model": two, "safe_models": [other], "alpha": 1.5},
            "nfl-check": {"model": two, "q1": two, "q2": other},
            "censorship": {"safe_models": [two, other], "alpha": 0.5},
            "dp-beta": {"p": two, "p_prime": other, "alpha": 0.5, "alpha_grid": [0.0]},
            "hist": {k: transform[k] for k in ("dataset", "domain", "epsilon", "delta")},
            "transform": {**transform, "tape_seed": 3},
            "prop1": {**TestProp1().config(), "margin": 0.5},
            "ingest": {"corpus": transform["dataset"], "tokenization": "line"},
        }[subcommand]

    @pytest.mark.parametrize("subcommand", cli._SUBCOMMANDS)
    def test_runner_reads_its_named_fields(self, tmp_path, subcommand):
        runner, fields = cli._SUBCOMMANDS[subcommand]
        cfg = Reads(self.passing(tmp_path, subcommand))
        assert runner(cfg, 0)[2] == 0
        assert cfg.looked_up == set(fields)
        assert run_cli(tmp_path, subcommand, {**cfg, "seed": 4})[0] == 0

    # subcommand -> the header of its --csv table
    CSV_HEADERS = {
        "tv": "symbol,q1,q2,abs_diff",
        "naf-check": "content_id,symbol,log_ratio",
        "nfl-check": "symbol,p,min_q,threshold",
        "censorship": "symbol,bound",
        "dp-beta": "alpha,beta,beta_reverse,symmetric_beta,beta_event_form",
        "hist": "symbol,count,freq,value",
        "transform": "symbol,weight",
        "prop1": "trial,tv",
        "ingest": "symbol,count",
    }

    @pytest.mark.parametrize("subcommand", cli._SUBCOMMANDS)
    def test_csv_header_names_its_own_columns(self, tmp_path, subcommand):
        # naf-check's table is empty here, and the only table that can be:
        # an empty alpha_grid used to write naf-check's header for dp-beta
        table = tmp_path / "table.csv"
        cfg = self.passing(tmp_path, subcommand)
        assert run_cli(tmp_path, subcommand, cfg, ["--csv", str(table)])[0] == 0
        assert table.read_text().splitlines()[0] == self.CSV_HEADERS[subcommand]

    @pytest.mark.parametrize("subcommand", cli._SUBCOMMANDS)
    def test_unknown_field_is_refused_first(self, tmp_path, capsys, subcommand):
        # every other field is missing, so the refusal comes before any read
        code, report = run_cli(tmp_path, subcommand, {"seed": 1, "note": "x"})
        err = capsys.readouterr().err
        assert code == 1 and report is None
        known = ", ".join(("seed", *cli._SUBCOMMANDS[subcommand][1]))
        assert err == (
            f"error: note: unknown field of the {subcommand} config; known fields: {known}\n"
        )

    def test_misspelled_fields_of_a_transform(self, tmp_path, capsys):
        # both used to run empirical(smoothing=0) on a derived tape, exit 0
        # and echo the misspelled fields
        cfg = TestTransform().config(tmp_path, 73 * 3)
        for bad, field in (
            ({"tape_sed": 5}, "tape_sed"),
            ({"learner": {"kind": "empirical", "smoothng": 1.0}}, "learner.smoothng"),
            ({"learner": {"kind": "empirical", "model": cfg["domain"]}}, "learner.model"),
            ({"learner": {"kind": "constant", "smoothing": 1.0}}, "learner.smoothing"),
        ):
            code, report = run_cli(tmp_path, "transform", {**cfg, **bad})
            err = capsys.readouterr().err
            assert code == 1 and report is None
            assert err.startswith(f"error: {field}: unknown field of "), err

    @pytest.mark.parametrize(
        "subcommand, field, value, message",
        [
            ("hist", "dataset", 5, "expected a file path string, got 5"),
            ("censorship", "safe_models", {"symbols": ["a"]},
             "expected a non-empty list, got {'symbols': ['a']}"),
            ("censorship", "safe_models", [], "expected a non-empty list, got []"),
            ("transform", "learner", "empirical", "file not found: empirical"),
            ("dp-beta", "alpha_grid", 0.5, "expected a non-empty list, got 0.5"),
        ],
    )
    def test_wrong_shape_of_field(self, tmp_path, capsys, subcommand, field, value, message):
        cfg = {**self.passing(tmp_path, subcommand), field: value}
        code, report = run_cli(tmp_path, subcommand, cfg)
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {field}: {message}\n"

    def test_report_goes_to_stdout_without_out(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "cfg.json", self.passing(tmp_path, "tv"))
        assert main(["tv", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["payload"]["tv"] == 0.5

    def test_seed_is_taken_mod_2_64(self, tmp_path):
        # the envelope echoes the seed as given; the payload is that of its
        # 64-bit key
        cfg = self.passing(tmp_path, "hist")
        reports = {}
        for seed in (-1, 2**64 - 1, 2**65 - 1):
            code, report = run_cli(tmp_path, "hist", cfg, ["--seed", str(seed)])
            assert code == 0 and report["seed"] == seed
            reports[seed] = report
            del report["wall_clock_s"], report["seed"]
        assert reports[-1] == reports[2**64 - 1] == reports[2**65 - 1]


TWO = {"symbols": ["a", "b"], "weights": [0.5, 0.5]}
PROP1_SCALARS = {"epsilon": 2.0, "delta": 0.05, "eta": 0.3, "m": 3,
                 "outer_trials": 1, "inner_trials": 2, "premise_trials": 2}


class TestConfigDocuments:
    """Every JSON object a config holds, inline or as a file, refuses the
    keys it does not read, and every error inside it is named by its dotted
    path."""

    # case -> (subcommand, config, the exact error line)
    CASES = {
        "misspelled weights": (
            "tv", {"q1": {**TWO, "wieghts": [0.9, 0.1]}, "q2": TWO},
            "q1.wieghts: unknown field of a distribution; known fields: symbols, weights",
        ),
        "missing weights": (
            "tv", {"q1": {"symbols": ["a", "b"]}, "q2": TWO},
            "q1.weights: missing required field",
        ),
        "second key of a domain": (
            "hist", {"domain": {"symbols": ["a", "b"], "symbol": ["c"]},
                     "epsilon": 1.0, "delta": 1e-3},
            "domain.symbol: unknown field of a domain; known fields: symbols",
        ),
        "misspelled id": (
            "naf-check", {"model": TWO, "safe_models": [{"ID": "doc1", "model": TWO}],
                          "alpha": 0.5},
            "safe_models[0].ID: unknown field of a safe model entry; known fields: id, model",
        ),
        "id beside a bare model": (
            "censorship", {"safe_models": [TWO, {**TWO, "id": "doc1"}], "alpha": 0.5},
            "safe_models[1].id: unknown field of a distribution; known fields: symbols, weights",
        ),
        "smoothing out of range": (
            "prop1", {"data_distribution": TWO, **PROP1_SCALARS,
                      "learner": {"kind": "empirical", "smoothing": -1}},
            "learner.smoothing: smoothing must be a finite number >= 0, got -1.0",
        ),
        "constant model without weights": (
            "prop1", {"data_distribution": TWO, **PROP1_SCALARS,
                      "learner": {"kind": "constant", "model": {"symbols": ["a", "b"]}}},
            "learner.model.weights: missing required field",
        ),
        "learner without a kind": (
            "prop1", {"data_distribution": TWO, **PROP1_SCALARS, "learner": {}},
            "learner.kind: missing required field",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_error_names_its_dotted_path(self, tmp_path, capsys, case):
        subcommand, cfg, line = self.CASES[case]
        if subcommand == "hist":
            data = tmp_path / "sample.txt"
            data.write_text("a\nb\n")
            cfg = {**cfg, "dataset": str(data)}
        code, report = run_cli(tmp_path, subcommand, cfg)
        assert code == 1 and report is None
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_objects_in_files_follow_the_same_rule(self, tmp_path, capsys):
        # a learner and a wrapped safe model may be file paths, like every object
        inline = {"data_distribution": TWO, **PROP1_SCALARS,
                  "learner": {"kind": "empirical", "smoothing": 1.0}}
        learner = write_config(tmp_path, "learner.json", inline["learner"])
        _, want = run_cli(tmp_path, "prop1", inline)
        code, got = run_cli(tmp_path, "prop1", {**inline, "learner": learner})
        assert code == 0 and got["payload"] == want["payload"]
        entry = write_config(tmp_path, "entry.json", {"id": "doc1", "model": TWO})
        code, report = run_cli(tmp_path, "censorship", {"safe_models": [entry], "alpha": 0.5})
        assert code == 0
        typo = write_config(tmp_path, "typo.json", {"kind": "empirical", "smoothng": 1.0})
        cfg = write_config(tmp_path, "cfg.json", {**inline, "learner": typo})
        assert main(["prop1", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: learner.smoothng: unknown field of ")


class TestJsonTypes:
    """A JSON value of the wrong type exits 1 with one line,
    "<dotted path>: expected <kind>, got <value>", from core._json_value,
    whichever reader finds it."""

    LEARNER = {"data_distribution": TWO, **PROP1_SCALARS}
    # case -> (subcommand, config, the exact error line)
    CASES = {
        "scalar field": ("hist", {"epsilon": "1", "delta": 1e-3},
                         "epsilon: expected a number, got '1'"),
        "scalar in a learner": (
            "prop1", {**LEARNER, "learner": {"kind": "empirical", "smoothing": True}},
            "learner.smoothing: expected a number, got True",
        ),
        "text file path": ("ingest", {"corpus": 5}, "corpus: expected a file path string, got 5"),
        "object": ("prop1", {**LEARNER, "learner": 5}, "learner: expected a JSON object, got 5"),
        "safe model entry": ("censorship", {"safe_models": [TWO, [0.5]], "alpha": 0.5},
                             "safe_models[1]: expected a JSON object, got [0.5]"),
        "safe model id": (
            "naf-check", {"model": TWO, "safe_models": [{"id": 3, "model": TWO}], "alpha": 0.5},
            "safe_models[0].id: expected a string, got 3",
        ),
        "safe models": ("censorship", {"safe_models": "ab", "alpha": 0.5},
                        "safe_models: expected a non-empty list, got 'ab'"),
        "alpha grid": ("dp-beta", {"p": TWO, "p_prime": TWO, "alpha": 0.5, "alpha_grid": []},
                       "alpha_grid: expected a non-empty list, got []"),
        "alpha grid entry": (
            "dp-beta", {"p": TWO, "p_prime": TWO, "alpha": 0.5, "alpha_grid": [0.1, "x"]},
            "alpha_grid[1]: expected a number, got 'x'",
        ),
        "domain symbols": ("hist", {"domain": {"symbols": "ab"}, "epsilon": 1.0, "delta": 1e-3},
                           "domain.symbols: expected a list of strings, got 'ab'"),
        "distribution symbols": (
            "tv", {"q1": {"symbols": ["a", 1], "weights": [0.5, 0.5]}, "q2": TWO},
            "q1.symbols[1]: expected a string, got 1",
        ),
        "distribution weights": ("tv", {"q1": {"symbols": ["a", "b"], "weights": "x"}, "q2": TWO},
                                 "q1.weights: expected a list of numbers, got 'x'"),
        "weight entry": ("tv", {"q1": {"symbols": ["a", "b"], "weights": [0.5, "x"]}, "q2": TWO},
                         "q1.weights[1]: expected a number, got 'x'"),
        # one short line, where the whole list (6,934 bytes) used to be echoed
        "one bad entry among 300 weights": (
            "tv", {"q1": {"symbols": [f"s{i}" for i in range(300)],
                          "weights": [1 / 300] * 299 + ["x"]}, "q2": TWO},
            "q1.weights[299]: expected a number, got 'x'",
        ),
        # a long value of the wrong kind is echoed cut to core._ECHO_CHARS
        # characters, where the whole list (6,939 bytes) used to be echoed
        "bare list of 300 weights": (
            "tv", {"q1": [1 / 300] * 300, "q2": TWO},
            "q1: expected a JSON object, got [0.0033333333333333335, 0.0033333333333333335,"
            " 0.0033333333333333335, 0.00333...",
        ),
        "domain symbol entry": (
            "hist", {"domain": {"symbols": ["a", None]}, "epsilon": 1.0, "delta": 1e-3},
            "domain.symbols[1]: expected a string, got None",
        ),
        "model weights in a learner": (
            "prop1", {**LEARNER, "learner": {"kind": "constant",
                                             "model": {"symbols": ["a", "b"], "weights": "x"}}},
            "learner.model.weights: expected a list of numbers, got 'x'",
        ),
        "model weight entry in a learner": (
            "prop1", {**LEARNER, "learner": {"kind": "constant",
                                             "model": {"symbols": ["a", "b"], "weights": [1, True]}}},
            "learner.model.weights[1]: expected a number, got True",
        ),
        # null is a value of the wrong type, never an absent field
        "null domain": ("hist", {"domain": None, "epsilon": 1.0, "delta": 1e-3},
                        "domain: expected a JSON object, got None"),
        # raw JSON text: a dict cannot hold a key twice
        "repeated field": ("tv", '{"q1": %s, "q2": %s, "q1": %s}' % ((json.dumps(TWO),) * 3),
                           "q1: repeated field"),
        "repeated field in a distribution": (
            "tv", '{"q1": {"symbols": ["a", "b"], "weights": [0.5, 0.5], "weights": [1, 0]},'
                  ' "q2": %s}' % json.dumps(TWO),
            "q1.weights: repeated field",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_error_names_its_dotted_path(self, tmp_path, capsys, case):
        subcommand, cfg, line = self.CASES[case]
        if subcommand == "hist":
            data = tmp_path / "sample.txt"
            data.write_text("a\nb\n")
            cfg = {**cfg, "dataset": str(data)}
        if isinstance(cfg, str):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(cfg)
            code = main([subcommand, "--config", str(cfg_path)])
        else:
            code, report = run_cli(tmp_path, subcommand, cfg)
            assert report is None
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {line}\n" and len(err.encode()) < 200

    def test_config_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", [1])
        assert main(["tv", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: config: expected a JSON object, got [1]\n"
