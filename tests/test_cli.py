"""Exit codes, file formats and round-trips of the command-line front end."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdqw import cli, spectral
from bdqw.cli import load_config, main, parse_config, resolve

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, name="config.json", **fields) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def edge_config(tmp_path, **overrides) -> str:
    fields = {
        "dims": [{"size": 1, "p_table": "ehrenfest"}],
        "select_prob": [1.0],
        "time": math.pi / 2,
        "initial": [0],
    }
    fields.update(overrides)
    return write_config(tmp_path, **fields)


def two_edge_config(tmp_path, **overrides) -> str:
    fields = {
        "dims": [{"size": 1}, {"size": 1}],
        "select_prob": "uniform",
        "time": math.pi,
        "initial": [0, 0],
    }
    fields.update(overrides)
    return write_config(tmp_path, **fields)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        config = load_config(edge_config(tmp_path))
        assert config.spec.n_dims == 1
        assert config.initial == (0,)
        assert config.times == (math.pi / 2,)

    def test_explicit_p_table(self, tmp_path):
        config = load_config(
            write_config(tmp_path, dims=[{"size": 2, "p_table": [0.3]}], time=1.0)
        )
        assert config.spec.dims[0].decrease_prob == (0.3,)

    def test_uniform_select_prob_default(self, tmp_path):
        config = load_config(write_config(tmp_path, dims=[{"size": 1}, {"size": 2}]))
        assert config.spec.select_prob == (0.5, 0.5)

    def test_error_names_offending_field(self):
        with pytest.raises(ValueError, match="dims"):
            parse_config({"dims": []})
        with pytest.raises(ValueError, match=r"dims\[0\].size"):
            parse_config({"dims": [{"size": 0}]})
        with pytest.raises(ValueError, match="select_prob"):
            parse_config({"dims": [{"size": 1}], "select_prob": [0.5]})
        with pytest.raises(ValueError, match="time"):
            parse_config({"dims": [{"size": 1}], "time": "soon"})
        with pytest.raises(ValueError, match="initial"):
            parse_config({"dims": [{"size": 1}], "initial": [5]})
        with pytest.raises(ValueError, match="oracle_cap"):
            parse_config({"dims": [{"size": 1}], "oracle_cap": -1})

    @pytest.mark.parametrize(
        "fields, path",
        [
            ({"dims": [{"size": 1}], "times": [0.5, 2.0]}, "times"),
            ({"dims": [{"size": 1}], "intial": [1]}, "intial"),
            ({"dims": [{"size": 1}, {"size": 2, "ptable": [0.3]}]}, "dims[1].ptable"),
            ({"dims": [{"size": 1}], "output": {"path": "-", "fmt": "json"}}, "output.fmt"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, fields, path):
        # a misspelt key must not be dropped: its default would run in its place
        assert main(["dump-config", "--config", write_config(tmp_path, **fields)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: unknown key")

    def test_nan_select_prob_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [{"size": 1}], "select_prob": [NaN]}', encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "select_prob" in capsys.readouterr().err

    def test_non_finite_time_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [{"size": 1}], "time": Infinity}', encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"dims": [{"size": 1}], "time": 10**400}, "time"),
            ({"dims": [{"size": 1}] * 2, "select_prob": [10**400, 0.5]}, "select_prob"),
            ({"dims": [{"size": 2, "p_table": [10**400]}]}, "p_table"),
        ],
    )
    def test_int_beyond_a_double_rejected(self, tmp_path, capsys, fields, field):
        # a JSON integer of 401 digits parses, but has no float value
        assert main(["simulate", "--config", write_config(tmp_path, **fields)]) == 2
        assert field in capsys.readouterr().err


class TestSimulate:
    def test_edge_walk_quarter_turn(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["simulate", "--config", edge_config(tmp_path), "--output", str(out)])
        assert code == 0
        rows = read_csv(str(out))
        assert set(rows[0].keys()) == {"time", "dimension", "position", "probability"}
        hit = [r for r in rows if r["dimension"] == "1" and r["position"] == "1"]
        assert len(hit) == 1
        assert abs(float(hit[0]["probability"]) - 1.0) <= 1e-12

    def test_probability_groups_sum_to_one(self, tmp_path):
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            dims=[{"size": 2}, {"size": 3}],
            select_prob=[0.4, 0.6],
            time=[0.5, 1.5],
            initial=[1, 0],
        )
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        groups: dict[tuple[str, str], float] = {}
        for row in read_csv(str(out)):
            key = (row["time"], row["dimension"])
            groups[key] = groups.get(key, 0.0) + float(row["probability"])
        assert len(groups) == 4
        for total in groups.values():
            assert abs(total - 1.0) <= 1e-9

    def test_two_edge_walk_at_pi_is_point_mass(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", two_edge_config(tmp_path), "--output", str(out)]) == 0
        for row in read_csv(str(out)):
            expected = 1.0 if row["position"] == "1" else 0.0
            assert abs(float(row["probability"]) - expected) <= 1e-12

    def test_dense_rows_emitted_and_normalized(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["simulate", "--config", two_edge_config(tmp_path, time=0.8), "--dense", "--output", str(out)]
        )
        assert code == 0
        joint = [float(r["probability"]) for r in read_csv(str(out)) if r["dimension"] == "joint"]
        assert len(joint) == 4
        assert abs(sum(joint) - 1.0) <= 1e-9

    def test_dense_over_cap_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            dims=[{"size": 1} for _ in range(13)],
            time=1.0,
        )
        assert main(["simulate", "--config", config, "--dense"]) == 3
        assert "oracle cap" in capsys.readouterr().err

    def test_without_dense_large_product_is_fine(self, tmp_path):
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, dims=[{"size": 1} for _ in range(20)], time=1.0)
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        assert len(read_csv(str(out))) == 40

    def test_json_format(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            ["simulate", "--config", edge_config(tmp_path), "--format", "json", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["results"][0]["marginals"][0][1] - 1.0) <= 1e-12

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [}', encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("table", [[0.5, 1e-300], [1e-160, 1e-160]])
    def test_numerical_error_exits_2_without_traceback(self, tmp_path, capsys, table):
        # the eigensolver cannot resolve these weights; that is a property of
        # the configured chain, so it exits 2 like any other bad config
        config = write_config(tmp_path, dims=[{"size": 3, "p_table": table}])
        assert main(["simulate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vanishing first component" in err
        assert "Traceback" not in err

    def test_csv_numbers_round_trip(self, tmp_path):
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, dims=[{"size": 2}], time=0.7, initial=[0])
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        from bdqw.chain import ehrenfest_dimension
        from bdqw.ctqw import transition_row
        from bdqw.spectral import dimension_spectrum

        expected = transition_row(dimension_spectrum(ehrenfest_dimension(2)), 0.7, 0)
        got = [float(r["probability"]) for r in read_csv(str(out))]
        assert got == list(expected)  # 17 significant digits: bit-exact round trip


class TestVerify:
    def test_two_edge_uniform_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", two_edge_config(tmp_path, time=1.0), "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for key in (
            "theorem1_max_abs_err",
            "orthogonality_defect",
            "unitarity_defect",
            "detailed_balance_defect",
        ):
            assert report[key] <= 1e-10
        assert report["pass"] is True

    def test_mixed_sizes_pass(self, tmp_path):
        config = write_config(
            tmp_path,
            dims=[{"size": 1}, {"size": 2}, {"size": 3}],
            select_prob=[0.2, 0.3, 0.5],
            time=1.0,
        )
        assert main(["verify", "--config", config]) == 0

    def test_corrupted_select_prob_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            dims=[{"size": 1}, {"size": 1}],
            select_prob=[0.5, 0.6],
            time=1.0,
        )
        assert main(["verify", "--config", config]) == 2
        assert "select_prob" in capsys.readouterr().err

    def test_cap_exceeded_exits_3(self, tmp_path):
        assert (
            main(["verify", "--config", two_edge_config(tmp_path), "--oracle-cap", "2"]) == 3
        )

    def test_cap_checked_before_factorized_matrix(self, tmp_path, monkeypatch):
        # 2^40 states: the all-pairs factorized matrix must never be attempted
        def refuse(*args, **kwargs):
            raise AssertionError("factorized all-pairs matrix built over the cap")

        monkeypatch.setattr(cli, "factorized_transition_matrix", refuse)
        config = write_config(tmp_path, dims=[{"size": 1}] * 40)
        assert main(["verify", "--config", config]) == 3


class TestClt:
    def test_edge_sweep_is_strictly_decreasing(self, tmp_path, capsys):
        out = tmp_path / "clt.csv"
        config = write_config(
            tmp_path,
            dims=[{"size": 1}],
            time=1.0,
            d_sweep=[4, 16, 64],
        )
        assert main(["clt", "--config", config, "--output", str(out)]) == 0
        assert "elapsed time T" in capsys.readouterr().err
        rows = read_csv(str(out))
        assert rows[-1]["d"] == "monotone_decrease"
        assert rows[-1]["kolmogorov_distance"] == "true"
        distances = [float(r["kolmogorov_distance"]) for r in rows[:-1]]
        assert distances == sorted(distances, reverse=True)

    def test_single_walker_distance_value(self, tmp_path):
        out = tmp_path / "clt.csv"
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[1])
        assert main(["clt", "--config", config, "--output", str(out)]) == 0
        got = float(read_csv(str(out))[0]["kolmogorov_distance"])
        # frozen from the hand-evaluated sup at the two standardized atoms:
        # the law is Bernoulli(sin^2 1) and the sup is |F(1-) - Phi(z_1)|
        assert abs(got - 0.4476668932539417) <= 1e-10

    def test_degenerate_time_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, dims=[{"size": 1}], time=0.0, d_sweep=[4])
        assert main(["clt", "--config", config]) == 2
        assert "variance" in capsys.readouterr().err

    def test_requires_single_dimension(self, tmp_path):
        config = write_config(tmp_path, dims=[{"size": 1}, {"size": 1}], time=1.0, d_sweep=[2])
        assert main(["clt", "--config", config]) == 2

    def test_requires_d_sweep(self, tmp_path):
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0)
        assert main(["clt", "--config", config]) == 2


class TestBench:
    def test_smoke_and_skip_over_cap(self, tmp_path):
        out = tmp_path / "bench.csv"
        config = write_config(
            tmp_path,
            dims=[{"size": 1}],
            time=1.0,
            d_sweep=[2, 13],
        )
        assert main(["bench", "--config", config, "--output", str(out)]) == 0
        rows = read_csv(str(out))
        by_size = {r["product_size"]: r for r in rows}
        assert float(by_size["4"]["dense_ms"]) >= 0.0
        assert by_size["8192"]["dense_ms"] == "skipped"
        assert float(by_size["8192"]["factorized_ms"]) > 0.0
        flags = {r["product_size"]: r["dense_ms"] for r in rows if not r["product_size"].isdigit()}
        assert set(flags) == {"speedup_at_least_10x", "factorized_flat"}

    @pytest.mark.parametrize("command", ["clt", "bench"])
    def test_sweep_rejects_several_times(self, tmp_path, capsys, command):
        config = write_config(tmp_path, dims=[{"size": 1}], time=[1.0, 2.0], d_sweep=[2])
        assert main([command, "--config", config]) == 2
        assert "time" in capsys.readouterr().err

    def test_unwritable_product_size_rejected_before_timing(self, tmp_path, monkeypatch, capsys):
        # 5^8192 has 5 726 digits, beyond what int-to-str (and so CSV and JSON) writes
        def refuse(*args, **kwargs):
            raise AssertionError("timed a sweep whose report cannot be written")

        monkeypatch.setattr(cli, "_median_ms", refuse)
        config = write_config(tmp_path, dims=[{"size": 4}], d_sweep=[8192])
        assert main(["bench", "--config", config]) == 2
        assert "d_sweep" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        # stands in for numpy failing to allocate a dense array under a huge cap
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr(cli, "transition_prob_dense", exhaust)
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[2])
        assert main(["bench", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 2.00 GiB for an array\n"


class TestBiasedChain:
    """p(k) = 0.999 on 111 states: the stationary tail underflows, the eigensystem does not."""

    N = 110
    P = 0.999

    @pytest.fixture
    def config(self, tmp_path) -> str:
        dims = [{"size": self.N, "p_table": [self.P] * (self.N - 1)}]
        return write_config(tmp_path, dims=dims, time=[1.0, 5.0, 40.0], initial=[3])

    @pytest.mark.parametrize("command", ["simulate", "verify", "dump-spectrum"])
    def test_subcommands_succeed(self, tmp_path, config, command):
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out)]) == 0
        if command == "verify":
            assert json.loads(out.read_text())["pass"] is True

    def test_rows_match_the_matrix_exponential(self):
        from scipy.linalg import expm

        from bdqw.chain import DimensionSpec, build_conditional_matrix, stationary_distribution
        from bdqw.ctqw import transition_row

        dim = DimensionSpec(size=self.N, decrease_prob=(self.P,) * (self.N - 1))
        m = build_conditional_matrix(dim)
        assert float(stationary_distribution(m).min()) == 0.0
        off = np.sqrt(np.diag(m, 1) * np.diag(m, -1))
        j = np.diag(np.diag(m)) + np.diag(off, 1) + np.diag(off, -1)
        spectrum = spectral.dimension_spectrum(dim)
        for t in (1.0, 5.0, 40.0):
            expected = np.abs(expm(1j * t * j)[:, 3]) ** 2
            assert np.max(np.abs(transition_row(spectrum, t, 3) - expected)) <= 1e-12


class TestOneSpectraStage:
    """Each subcommand solves each distinct dimension once per call; bench once per d."""

    @pytest.fixture
    def solved(self, monkeypatch) -> list:
        calls = []
        solve = spectral.dimension_spectrum

        def counting(dim):
            calls.append(dim)
            return solve(dim)

        monkeypatch.setattr(spectral, "dimension_spectrum", counting)
        return calls

    @pytest.mark.parametrize("argv", [["simulate", "--dense"], ["verify"]])
    def test_two_distinct_dims_at_two_times(self, tmp_path, solved, argv):
        config = write_config(tmp_path, dims=[{"size": 1}, {"size": 2}], time=[0.5, 1.5])
        assert main([*argv, "--config", config, "--output", str(tmp_path / "out")]) == 0
        assert sorted(dim.size for dim in solved) == [1, 2]

    def test_bench_solves_once_per_d_outside_the_timing(self, tmp_path, solved):
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[2, 3])
        assert main(["bench", "--config", config, "--output", str(tmp_path / "out")]) == 0
        assert len(solved) == 2


class TestDumps:
    def test_dump_config_round_trip(self, tmp_path):
        out = tmp_path / "normalized.json"
        config_path = write_config(
            tmp_path,
            dims=[{"size": 3, "p_table": "ehrenfest"}, {"size": 2, "p_table": [0.25]}],
            select_prob="uniform",
            time=[0.5, 1.0],
            initial=[2, 0],
        )
        assert main(["dump-config", "--config", config_path, "--output", str(out)]) == 0
        original = load_config(config_path)
        reparsed = parse_config(json.loads(out.read_text()))
        assert reparsed.spec == original.spec
        assert reparsed.times == original.times
        assert reparsed.initial == original.initial

    def test_dump_spectrum(self, tmp_path):
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 2}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        dim = payload["dimensions"][0]
        assert dim["size"] == 2
        assert np.allclose(dim["eigenvalues"], [-1.0, 0.0, 1.0], atol=1e-12)
        assert abs(sum(dim["weights"]) - 1.0) <= 1e-10
        assert dim["poly_table"][0] == [1.0, 1.0, 1.0]


class TestOracleCapResolution:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BDQW_ORACLE_CAP", "2")
        assert main(["verify", "--config", two_edge_config(tmp_path)]) == 3

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDQW_ORACLE_CAP", "2")
        assert (
            main(["verify", "--config", two_edge_config(tmp_path, time=1.0), "--oracle-cap", "64"])
            == 0
        )

    def test_config_field_used_without_env_or_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BDQW_ORACLE_CAP", raising=False)
        assert main(["verify", "--config", two_edge_config(tmp_path, oracle_cap=2)]) == 3

    def test_bad_env_value_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDQW_ORACLE_CAP", "many")
        assert main(["verify", "--config", two_edge_config(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv", [["verify", "--oracle-cap", "0"], ["simulate", "--dense", "--oracle-cap", "-5"]]
    )
    def test_non_positive_flag_exits_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--config", two_edge_config(tmp_path)]) == 2
        assert "--oracle-cap" in capsys.readouterr().err


class TestResolution:
    """Flags, environment and config fields are resolved once, for every subcommand."""

    def dumped(self, tmp_path, argv=(), **fields) -> dict:
        out = tmp_path / "resolved.json"
        config = write_config(tmp_path, dims=[{"size": 2}], time=[0.5, 1.0], **fields)
        assert main(["dump-config", "--config", config, "--output", str(out), *argv]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize(
        "env, flag, field, expected",
        [
            ("50", ["--oracle-cap", "100"], 77, 100),  # flag beats env
            ("50", [], 77, 50),  # env beats config
            (None, [], 77, 77),  # config beats default
            (None, [], None, 4096),  # the default
        ],
    )
    def test_oracle_cap_precedence(self, tmp_path, monkeypatch, env, flag, field, expected):
        if env is None:
            monkeypatch.delenv("BDQW_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("BDQW_ORACLE_CAP", env)
        fields = {} if field is None else {"oracle_cap": field}
        assert self.dumped(tmp_path, flag, **fields)["oracle_cap"] == expected

    def test_time_flag_overrides_config(self, tmp_path):
        assert self.dumped(tmp_path)["time"] == [0.5, 1.0]
        assert self.dumped(tmp_path, ["--time", "0.25,3"])["time"] == [0.25, 3.0]

    # A behaviour change: clt, dump-spectrum and dump-config used to ignore
    # BDQW_ORACLE_CAP, and dump-spectrum ignored --time, so a malformed value
    # passed unnoticed there.  Now every subcommand resolves and checks both.
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize(
        "env, argv, field",
        [
            ("many", [], "BDQW_ORACLE_CAP"),
            ("0", [], "BDQW_ORACLE_CAP"),
            (None, ["--time", "soon"], "--time"),
            (None, ["--time", "1,inf"], "--time"),
        ],
    )
    def test_malformed_setting_exits_2_everywhere(
        self, tmp_path, monkeypatch, capsys, command, env, argv, field
    ):
        if env is None:
            monkeypatch.delenv("BDQW_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("BDQW_ORACLE_CAP", env)
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[2])
        assert main([command, "--config", config, *argv]) == 2
        assert field in capsys.readouterr().err

    def test_subcommands_read_only_the_resolved_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDQW_ORACLE_CAP", "2")
        args = cli.build_parser().parse_args(
            ["verify", "--config", "unused.json", "--oracle-cap", "64"]
        )
        config = resolve(load_config(two_edge_config(tmp_path, time=1.0)), args)
        assert config.oracle_cap == 64
        code, text = cli.run_verify(config)  # the env cap of 2 would exit 3
        assert code == 0 and json.loads(text)["pass"] is True


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        config = edge_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-m", "bdqw", "simulate", "--config", config],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "time,dimension,position,probability"
        assert len(lines) == 3
