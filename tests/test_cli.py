"""Exit codes, file formats and round-trips of the command-line front end."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import bdqw
from bdqw import cli, spectral
from bdqw.chain import DimensionSpec, MultiChainSpec, build_conditional_matrix, ehrenfest_dimension
from bdqw.cli import load_config, main, parse_config, resolve
from bdqw.spectral import SpectralData

from conftest import (
    dense_transition_matrix,
    dimension_specs,
    double_well,
    factorized_transition_matrix,
    random_dimension_spec,
)

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


def dumped_spectra(dims) -> str:
    """What dump-spectrum writes for ``dims``, through json.dumps from the spectra."""
    entries = []
    for idx, dim in enumerate(dims, start=1):
        data = spectral.dimension_spectrum(dim)
        entries.append(
            {
                "index": idx,
                "size": dim.size,
                "eigenvalues": data.eigenvalues.tolist(),
                "eigenvectors": data.eigenvectors.tolist(),
                "log_weights": (2.0 * np.log(data.eigenvectors[0])).tolist(),
            }
        )
    return json.dumps({"dimensions": entries}, indent=2) + "\n"


def assert_same_text(text: str, expected: str) -> None:
    """``text == expected``, failing with the first difference, not pytest's diff of megabytes."""
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        pytest.fail(f"texts differ at offset {at}: {text[at:at + 60]!r} != {expected[at:at + 60]!r}")


def double_well_entry(size: int) -> dict:
    """The double well as a ``dims`` entry."""
    return {"size": size, "p_table": list(double_well(size).decrease_prob)}


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


    def test_equal_dims_entries_share_one_spec(self):
        config = parse_config({"dims": [{"size": 2}, {"size": 3, "p_table": [0.4, 0.6]}] * 3})
        assert [d.size for d in config.spec.dims] == [2, 3] * 3
        assert len({id(d) for d in config.spec.dims}) == 2

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"size": 1, "p_tabel": "ehrenfest"}, r"\.p_tabel: unknown key"),
            ({"size": True}, r"\.size: expected a positive integer, got True"),
            ({"size": 1.0}, r"\.size: expected a positive integer, got 1.0"),
            ({"size": 2, "p_table": "[0.5]"}, r"\.p_table: expected 'ehrenfest'"),
            ({"size": 2, "p_table": [0.5, 0.5]}, r"\.p_table: decrease_prob needs 1"),
            ([1], r": expected an object"),
        ],
    )
    def test_each_dims_entry_is_checked_after_an_equal_one(self, entry, message):
        # each bad entry compares or prints like an entry parsed before it
        good = [{"size": 1}, {"size": 2, "p_table": [0.5]}]
        for dims in (good + [entry], good * 2 + [entry]):
            with pytest.raises(ValueError, match=rf"^dims\[{len(dims) - 1}\]{message}"):
                parse_config({"dims": dims})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"dims": [{"size": 1}], "time": []}, "time: expected at least one value"),
            ([{"dims": [{"size": 1}]}], "config: top level must be a JSON object"),
            ({"dims": [{"size": 1}], "select_prob": 1.0}, "select_prob: expected 'uniform'"),
            ({"dims": [{"size": 1}], "initial": [0, 0]}, "initial: expected a list of 1 positions"),
            ({"dims": [{"size": 1}], "output": "out.csv"}, "output: expected an object"),
            ({"dims": [{"size": 1}], "output": {"path": 3}}, "output.path: expected a string"),
            ({"dims": [{"size": 1}], "output": {"format": "xml"}}, "output.format: expected 'csv'"),
            ({"dims": [{"size": 1}], "d_sweep": []}, "d_sweep: expected a non-empty list"),
            ({"dims": [{"size": 1}], "d_sweep": [2, 0]}, "d_sweep: expected positive integers"),
            ({"dims": [{"size": 1}], "d_sweep": [2.0]}, "d_sweep: expected positive integers"),
            # strings and booleans are not reals, though float() would take them
            ({"dims": [{"size": 1}], "select_prob": [True]}, "select_prob[0]: expected a real number, got True"),
            (
                {"dims": [{"size": 1}] * 2, "select_prob": ["0.25", 0.75]},
                "select_prob[0]: expected a real number, got '0.25'",
            ),
            ({"dims": [{"size": 2, "p_table": ["0.5"]}]}, "dims[0].p_table[0]: expected a real number, got '0.5'"),
            (
                {"dims": [{"size": 1}, {"size": 3, "p_table": [0.5, False]}]},
                "dims[1].p_table[1]: expected a real number, got False",
            ),
            ({"dims": [{"size": 1}], "time": [0.5, "2"]}, "time[1]: expected a real number, got '2'"),
            ({"dims": [{"size": 1}], "time": [0.5, 1e308 * 10]}, "time[1]: value inf is not a finite double"),
        ],
    )
    def test_rejection_names_its_field_and_writes_nothing(self, tmp_path, capsys, data, message):
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


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

    def test_numerical_error_exits_2_without_traceback(self, tmp_path, capsys):
        # the eigensolver cannot resolve these weights; that is a property of
        # the configured chain, so it exits 2 like any other bad config
        config = write_config(tmp_path, dims=[{"size": 3, "p_table": [1e-160, 1e-160]}])
        assert main(["simulate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vanishing first component" in err
        assert "Traceback" not in err

    def test_tiny_step_chain_matches_the_matrix_exponential(self, tmp_path):
        # The twisted eigenvectors keep first components of ~7e-151 that the
        # QL rotations rounded to 0, so this chain now resolves.
        from scipy.linalg import expm

        from bdqw.chain import DimensionSpec, build_conditional_matrix

        out = tmp_path / "out.csv"
        times = [1.0, 5.0, 40.0]
        config = write_config(tmp_path, dims=[{"size": 3, "p_table": [0.5, 1e-300]}], time=times)
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        m = build_conditional_matrix(DimensionSpec(size=3, decrease_prob=(0.5, 1e-300)))
        off = np.sqrt(np.diag(m, 1) * np.diag(m, -1))
        j = np.diag(np.diag(m)) + np.diag(off, 1) + np.diag(off, -1)
        rows = read_csv(str(out))
        for t in times:
            got = [float(r["probability"]) for r in rows if float(r["time"]) == t]
            expected = np.abs(expm(1j * t * j)[:, 0]) ** 2
            assert np.max(np.abs(np.array(got) - expected)) <= 1e-12

    def test_streamed_csv_equals_the_row_list(self, tmp_path):
        # The CSV is written from a generator of rows; the old form built the
        # list of rows first.  Both must give the same bytes.
        from bdqw.ctqw import dense_position_distribution, position_distribution
        from bdqw.spectral import chain_spectra

        out = tmp_path / "out.csv"
        config_path = write_config(
            tmp_path, dims=[{"size": 2}, {"size": 3}], time=[0.5, 1.5], initial=[1, 0]
        )
        assert main(["simulate", "--dense", "--config", config_path, "--output", str(out)]) == 0
        config = load_config(config_path)
        spec, j, fmt = config.spec, config.initial, cli._fmt
        spectra = chain_spectra(spec)
        rows = []
        for t in config.times:
            for l, factor in enumerate(position_distribution(spec, spectra, t, j), start=1):
                rows.extend([fmt(t), str(l), str(pos), fmt(p)] for pos, p in enumerate(factor))
            joint = dense_position_distribution(spec, spectra, t, j, 4096)
            rows.extend([fmt(t), "joint", str(pos), fmt(p)] for pos, p in enumerate(joint))
        expected = cli._csv_text(["time", "dimension", "position", "probability"], rows)
        assert out.read_text(encoding="utf-8") == expected

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


    def test_edge_swarm_csv_equals_the_per_dimension_rows(self, tmp_path):
        # 10 000 size-1 edges share one spectrum, so the marginals are one grouped
        # kernel call per time; the bytes are those of a transition_row call per
        # dimension written by csv.writer.
        from bdqw.ctqw import transition_row
        from bdqw.spectral import chain_spectra

        d = 10_000
        weights = [1.0 + (7 * l % 13) / 6.0 for l in range(d)]
        config_path = write_config(
            tmp_path,
            dims=[{"size": 1}] * d,
            select_prob=[w / math.fsum(weights) for w in weights],
            time=[2345.5, 11000.25, 19876.0],
            initial=[l % 2 for l in range(d)],
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", config_path, "--output", str(out)]) == 0
        config = load_config(config_path)
        spec, fmt = config.spec, cli._fmt
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["time", "dimension", "position", "probability"])
        spectra = chain_spectra(spec)
        for t in config.times:
            for l, (q, s, jl) in enumerate(zip(spec.select_prob, spectra, config.initial), 1):
                row = transition_row(s, q * t, jl)
                writer.writerows([fmt(t), str(l), str(pos), fmt(p)] for pos, p in enumerate(row))
        assert out.read_text(encoding="utf-8") == buf.getvalue()


class TestCsvWriter:
    """The one CSV writer gives the text csv.writer gives, on every CSV subcommand."""

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["simulate"], {"dims": [{"size": 2}, {"size": 1}], "time": [0.5, 3.0]}),
            (["simulate", "--dense"], {"dims": [{"size": 2}, {"size": 1}], "time": [0.5, 3.0]}),
            (["clt"], {"dims": [{"size": 2}], "time": 1.0, "d_sweep": [1, 4, 16]}),
            (["bench"], {"dims": [{"size": 1}], "time": 1.0, "d_sweep": [2, 13]}),
        ],
    )
    def test_csv_reader_reads_back_the_rows(self, tmp_path, capsys, argv, fields):
        assert main([*argv, "--config", write_config(tmp_path, **fields)]) == 0
        text = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [line.split(",") for line in text.splitlines()]
        assert len({len(row) for row in rows}) == 1
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text
        if argv == ["bench"]:  # the flag rows end in empty fields
            assert rows[-1][0] == "factorized_flat" and rows[-1][2:] == ["", ""]


class TestVerify:
    def test_two_edge_uniform_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", two_edge_config(tmp_path, time=1.0), "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for key in (
            "theorem1_max_abs_err",
            "orthogonality_defect",
            "eigen_residual",
            "unitarity_defect",
            "detailed_balance_defect",
        ):
            assert report[key] <= 1e-10
        assert report["pass"] is True

    def test_urn_past_the_weight_underflow_passes(self, tmp_path):
        # from about N = 1075 on the urn's smallest weight, 2^-N, underflows to 0;
        # no check of verify reads a weight
        out = tmp_path / "report.json"
        config = write_config(tmp_path, dims=[{"size": 1100}], time=[0.7])
        assert main(["verify", "--config", config, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_mixed_sizes_pass(self, tmp_path):
        config = write_config(
            tmp_path,
            dims=[{"size": 1}, {"size": 2}, {"size": 3}],
            select_prob=[0.2, 0.3, 0.5],
            time=1.0,
        )
        assert main(["verify", "--config", config]) == 0

    @pytest.mark.parametrize(
        "route, key",
        [
            ("transition_matrix_1d", "theorem1_max_abs_err"),
            ("stationary_distribution", "detailed_balance_defect"),
        ],
    )
    def test_nan_defect_fails(self, tmp_path, monkeypatch, route, key):
        # Python's max(0.0, nan) is 0.0, so a running max() read a NaN defect as a pass
        real = getattr(cli, route)
        monkeypatch.setattr(cli, route, lambda *args: np.full_like(real(*args), np.nan))
        out = tmp_path / "report.json"
        config = two_edge_config(tmp_path, time=1.0)
        code = main(["verify", "--config", config, "--output", str(out)])
        report = json.loads(out.read_text())
        assert math.isnan(report[key])
        assert report["pass"] is False
        assert code == 1

    def test_spectra_of_a_wrong_kernel_fail(self, tmp_path, monkeypatch):
        # Orthonormal spectra of the right sizes but of another J: the
        # factorized and dense routes agree on them, so only the eigen-residual
        # J V - V Lambda ties them back to the configured kernel.
        config = write_config(
            tmp_path,
            dims=[{"size": 2}, {"size": 3}],
            select_prob=[0.4, 0.6],
            time=[0.5, 2.0],
        )
        wrong = {
            n: spectral.dimension_spectrum(DimensionSpec(size=n, decrease_prob=(0.2,) * (n - 1)))
            for n in (2, 3)
        }
        monkeypatch.setattr(
            cli, "chain_spectra", lambda spec: tuple(wrong[d.size] for d in spec.dims)
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--config", config, "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["eigen_residual"] > 1e-2
        for key in ("theorem1_max_abs_err", "orthogonality_defect", "unitarity_defect"):
            assert report[key] <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_eigen_residual_is_the_dense_matmul_residual(self, tmp_path, seed):
        # verify reads J V from the tridiagonal entries; the dense J is the reference
        rng = np.random.default_rng(seed)
        out = tmp_path / "report.json"
        for _ in range(5):
            dims = [random_dimension_spec(rng, max_size=40) for _ in range(2)]
            expected = 0.0
            for dim in dims:
                tri = spectral.symmetrize(build_conditional_matrix(dim))
                s = spectral.dimension_spectrum(dim)
                v = s.eigenvectors
                expected = max(expected, np.max(np.abs(tri.to_dense() @ v - v * s.eigenvalues)))
            table = [{"size": dim.size, "p_table": list(dim.decrease_prob)} for dim in dims]
            config = write_config(tmp_path, dims=table, time=0.8)
            assert main(["verify", "--config", config, "--output", str(out)]) == 0
            assert abs(json.loads(out.read_text())["eigen_residual"] - expected) <= 1e-15

    def test_unitarity_defect_is_the_complex_gram_defect(self):
        # a general complex matrix, neither unitary nor symmetric
        rng = np.random.default_rng(7)
        parts = rng.standard_normal((2, 6, 6))
        u = parts[0] + 1j * parts[1]
        expected = np.max(np.abs(u.conj().T @ u - np.eye(6)))
        assert abs(cli._unitarity_defect(parts) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("n", [cli._DEFECT_BLOCK_ROWS - 1, 2 * cli._DEFECT_BLOCK_ROWS + 3])
    def test_blocked_unitarity_defect(self, n):
        # the antisymmetric part is taken a block of rows at a time
        rng = np.random.default_rng(n)
        parts = rng.standard_normal((2, n, n)) / math.sqrt(n)
        u = parts[0] + 1j * parts[1]
        expected = np.max(np.abs(u.conj().T @ u - np.eye(n)))
        assert abs(cli._unitarity_defect(parts) - expected) <= 1e-13 * expected
        parts[1, n - 1, 0] = np.nan  # one NaN in the last block
        assert math.isnan(cli._unitarity_defect(parts))

    def test_blockwise_theorem1_error_is_the_all_pairs_difference(self):
        # the factorized law is subtracted a block at a time, with np.kron's products
        rng = np.random.default_rng(5)
        dims = tuple(random_dimension_spec(rng, max_size=6) for _ in range(3))
        spec = MultiChainSpec(dims=dims, select_prob=(0.5, 0.2, 0.3))
        spectra = spectral.chain_spectra(spec)
        for t in (0.4, 3.7, 25.0):
            error, _ = cli._dense_defects(spec, spectra, t, spec.product_size)
            dense = dense_transition_matrix(spec, spectra, t)
            expected = np.max(np.abs(dense - factorized_transition_matrix(spec, spectra, t)))
            assert error > 0.0
            assert error == expected  # bit for bit

    def test_dense_defects_hold_one_slab(self):
        # 4 x 16 x 16 = 1024 states: U's (2, n, n) slab is 16 n^2 bytes; the
        # contraction, the unitarity Gram and the Theorem-1 check add a fraction of it
        spec = MultiChainSpec(
            dims=tuple(ehrenfest_dimension(size) for size in (3, 15, 15)),
            select_prob=(0.2, 0.3, 0.5),
        )
        spectra = spectral.chain_spectra(spec)
        tracemalloc.start()
        try:
            theorem1, unitarity = cli._dense_defects(spec, spectra, 1.3, spec.product_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * spec.product_size**2
        assert theorem1 <= 1e-10 and unitarity <= 1e-10

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
        # 2^40 states: no factor of the factorized all-pairs law may be attempted
        def refuse(*args, **kwargs):
            raise AssertionError("factorized all-pairs law built over the cap")

        monkeypatch.setattr(cli, "transition_matrix_1d", refuse)
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

    def test_json_text_is_the_csv_rows_through_json_dumps(self, tmp_path, capsys):
        config = write_config(tmp_path, dims=[{"size": 2}], time=1.0, d_sweep=[1, 4, 16])
        assert main(["clt", "--config", config]) == 0
        *rows, flag = csv.reader(io.StringIO(capsys.readouterr().out))
        assert main(["clt", "--config", config, "--format", "json"]) == 0
        payload = {
            "reading": cli.CLT_READING,
            "time": 1.0,
            "rows": [{"d": int(d), "kolmogorov_distance": float(dist)} for d, dist in rows[1:]],
            "monotone_decrease": flag == ["monotone_decrease", "true"],
        }
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

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

    def test_json_text_is_json_dumps_with_the_csv_columns(self, tmp_path, capsys):
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[2, 13])
        assert main(["bench", "--config", config, "--format", "json"]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert list(payload) == ["time", "rows", "speedup_at_least_10x", "factorized_flat"]
        assert payload["time"] == 1.0
        columns = ["product_size", "dense_ms", "factorized_ms", "ratio"]
        assert [list(row) for row in payload["rows"]] == [columns] * 2
        small, large = payload["rows"]
        assert small["product_size"] == 4 and small["ratio"] == small["dense_ms"] / small["factorized_ms"]
        assert large["product_size"] == 8192 and large["dense_ms"] == "skipped"
        assert large["ratio"] is None and large["factorized_ms"] > 0.0
        assert payload["speedup_at_least_10x"] in (True, False)
        assert payload["factorized_flat"] in (True, False)

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
            d_sweep=[4, 1, 16],
        )
        assert main(["dump-config", "--config", config_path, "--output", str(out)]) == 0
        original = load_config(config_path)
        reparsed = parse_config(json.loads(out.read_text()))
        assert reparsed.spec == original.spec
        assert reparsed.times == original.times
        assert reparsed.initial == original.initial
        assert reparsed.d_sweep == original.d_sweep == (4, 1, 16)

    def test_dump_spectrum_text_and_one_solve_per_distinct_dimension(self, tmp_path, monkeypatch):
        solved = []
        solve = cli.dimension_spectrum

        def counting(dim):
            solved.append(dim)
            return solve(dim)

        monkeypatch.setattr(cli, "dimension_spectrum", counting)
        dims = [{"size": 3}, {"size": 2, "p_table": [0.3]}, {"size": 3}, {"size": 1}, {"size": 3}]
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=dims, time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
        assert [dim.size for dim in solved] == [3, 2, 1]
        spec = load_config(config).spec
        entries = []
        for idx, dim in enumerate(spec.dims):
            data = solve(dim)
            entries.append(
                {
                    "index": idx + 1,
                    "size": dim.size,
                    "eigenvalues": data.eigenvalues.tolist(),
                    "eigenvectors": data.eigenvectors.tolist(),
                    "log_weights": (2.0 * np.log(data.eigenvectors[0])).tolist(),
                }
            )
        payload = {"dimensions": entries}
        assert out.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"

    def test_dump_spectrum(self, tmp_path):
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 2}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        dim = payload["dimensions"][0]
        assert dim["size"] == 2
        assert np.allclose(dim["eigenvalues"], [-1.0, 0.0, 1.0], atol=1e-12)
        assert list(dim) == ["index", "size", "eigenvalues", "eigenvectors", "log_weights"]
        assert abs(sum(np.exp(dim["log_weights"])) - 1.0) <= 1e-10
        assert dim["log_weights"] == (2.0 * np.log(dim["eigenvectors"][0])).tolist()

    def test_dump_spectrum_urn_past_the_weight_underflow(self, tmp_path):
        # from about N = 1075 on the urn's smallest weight, 2^-N, underflows to 0;
        # its logarithm, twice that of the first component, does not
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 1100}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
        log_weights = json.loads(out.read_text())["dimensions"][0]["log_weights"]
        expected = scipy.stats.binom.logpmf(np.arange(1101), 1100, 0.5)
        assert np.max(np.abs(np.array(log_weights) - expected)) <= 1e-10
        # json.loads reads back the very doubles written, so this is json.dumps's text
        text = out.read_text(encoding="utf-8")
        assert_same_text(text, json.dumps(json.loads(text), indent=2) + "\n")

    def test_dump_spectrum_urn_deep_text(self, tmp_path):
        # the three Ehrenfest urns of the urn-deep benchmark workload
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": n} for n in (240, 160, 96)], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
        expected = dumped_spectra(load_config(config).spec.dims)
        assert_same_text(out.read_text(encoding="utf-8"), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(dimension_specs(max_size=40), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
    )
    def test_dump_spectrum_text_is_json_dumps(self, distinct, picks):
        # repeated and interleaved dims entries share one solve and one text
        dims = [distinct[i % len(distinct)] for i in picks]
        config = parse_config(
            {"dims": [{"size": d.size, "p_table": list(d.decrease_prob)} for d in dims]}
        )
        code, text = cli.run_dump_spectrum(config)
        assert code == 0
        assert_same_text(text, dumped_spectra(config.spec.dims))

    @pytest.mark.parametrize("key", ["eigenvalues", "eigenvectors"])
    def test_dump_spectrum_rejects_a_non_finite_value(self, tmp_path, monkeypatch, capsys, key):
        # json.dumps would write NaN, which is not JSON
        solve = cli.dimension_spectrum

        def with_nan(dim):
            data = solve(dim)
            arrays = {"eigenvalues": data.eigenvalues, "eigenvectors": data.eigenvectors}
            arrays[key] = arrays[key].copy()
            arrays[key][0] = math.nan  # an eigenvalue, or every first component and log-weight
            return SpectralData(**arrays)

        monkeypatch.setattr(cli, "dimension_spectrum", with_nan)
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 2}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 2
        message = f"{key} holds a non-finite value, which JSON cannot write"
        assert capsys.readouterr().err == f"error: dims[0] (size 2): {message}\n"
        assert not out.exists()


class TestSpectralFailureNamesItsDimension:
    """Double wells the eigensolver cannot resolve: exit 2 naming the first dims entry."""

    FAILURES = [
        (50, "eigenvalues are not strictly ascending"),
        (86, "eigenvector with vanishing first component"),
    ]

    @pytest.mark.parametrize("size, message", FAILURES)
    @pytest.mark.parametrize("command", ["simulate", "verify", "dump-spectrum"])
    def test_chain(self, tmp_path, capsys, command, size, message):
        well = double_well_entry(size)
        config = write_config(tmp_path, dims=[{"size": 2}, well, {"size": 2}, well], time=1.0)
        out = tmp_path / "out"
        # a cap above the product size, so that verify reaches the eigensolver
        argv = [command, "--config", config, "--output", str(out), "--oracle-cap", "100000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: dims[1] (size {size}): {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("size, message", FAILURES)
    @pytest.mark.parametrize("command", ["clt", "bench"])
    def test_sweep(self, tmp_path, capsys, command, size, message):
        config = write_config(tmp_path, dims=[double_well_entry(size)], time=1.0, d_sweep=[2])
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dims[0] (size {size}): {message}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["verify", "dump-spectrum", "dump-config"])
    def test_format_rejected_where_only_json_is_written(self, tmp_path, capsys, command):
        out = tmp_path / "report.csv"
        argv = [command, "--config", two_edge_config(tmp_path), "--output", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0 and out.exists()

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
    def test_every_public_name_resolves(self):
        assert [name for name in bdqw.__all__ if not hasattr(bdqw, name)] == []

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
