"""Exit codes, file formats and round-trips of the command-line front end."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shlex
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import bdqw
from bdqw import cli, spectral, stats
from bdqw.chain import (
    DimensionSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
)
from bdqw.cli import load_config, main, parse_config
from bdqw.spectral import SpectralData

from conftest import (
    dimension_specs,
    double_well,
    expm_oracle,
    kernel_layer_dimensions,
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
            ({"dims": [{"size": 1}], "output": {"format": "csv", "fmt": "json"}}, "output.fmt"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, fields, path):
        # a misspelt key must not be dropped: its default would run in its place
        assert main(["dump-config", "--config", write_config(tmp_path, **fields)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: unknown key")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"dims": [{"size": 1}], "time": 1.0, "time": 2.0}', "time"),
            ('{"dims": [{"size": 1, "size": 2}]}', "size"),
            ('{"dims": [{"size": 1}], "output": {"format": "csv", "format": "json"}}', "format"),
        ],
        ids=["top level", "dimension", "output"],
    )
    def test_duplicate_key_rejected(self, tmp_path, capsys, text, key):
        # json keeps the last of a repeated key: the first value would be dropped
        path = tmp_path / "dup.json"
        path.write_text(text, encoding="utf-8")
        assert main(["dump-config", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: config: duplicate key '{key}'\n")

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
            ({"dims": [{"size": 1}], "output": {"path": "-"}}, "output.path: unknown key"),
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
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            dims=[{"size": 1} for _ in range(13)],
            time=1.0,
        )
        assert main(["simulate", "--config", config, "--dense", "--output", str(out)]) == 3
        assert "oracle cap" in capsys.readouterr().err
        assert not out.exists()

    def test_the_joint_law_reads_no_spectrum(self, tmp_path, monkeypatch):
        # one eigenvalue of dims[0] shifted by 1e-9: the factorized marginals,
        # which read it, move; the joint law, from the kernels alone, stays on
        # scipy's expm of H.  An oracle of the same eigenpairs moved with them.
        config_path = write_config(
            tmp_path,
            dims=[{"size": 3}, {"size": 4}],
            select_prob=[0.35, 0.65],
            time=[2.5, 7.3],
            initial=[1, 2],
            output={"format": "json"},
        )
        out = tmp_path / "out.json"

        def run() -> list[dict]:
            assert main(["simulate", "--dense", "--config", config_path, "--output", str(out)]) == 0
            return json.loads(out.read_text())["results"]

        clean, real = run(), cli.chain_spectra
        monkeypatch.setattr(
            cli, "chain_spectra", lambda spec: (shifted_eigenvalue(real(spec)[0]), *real(spec)[1:])
        )
        spec = load_config(config_path).spec
        for before, after in zip(clean, run()):
            moved = np.subtract(after["marginals"][0], before["marginals"][0])
            assert np.max(np.abs(moved)) > 1e-12
            u = expm_oracle(spec, after["time"])
            expected = np.abs(u[:, np.ravel_multi_index((1, 2), spec.shape)]) ** 2
            assert np.max(np.abs(np.array(after["dense"]) - expected)) <= 1e-13

    def test_out_of_memory_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the report is streamed, but only after every time has been evaluated
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB for an array")

        monkeypatch.setattr(cli, "_marginal_laws", exhaust)
        out = tmp_path / "out.csv"
        config = two_edge_config(tmp_path, time=[0.5, 1.0])
        assert main(["simulate", "--config", config, "--output", str(out)]) == 3
        assert capsys.readouterr().err == "error: Unable to allocate 1.00 GiB for an array\n"
        assert not out.exists()

    def test_edge_swarm_report_is_not_held_as_text(self, tmp_path):
        # 10 000 edges at 3 times are 60 000 rows, 2.3 MB of CSV.  The marginals
        # are one array of 20 000 values per time, and the traced peak of the
        # whole run was 3.2 MiB (5.3 MiB with one array view per dimension and
        # time, 11.1 MiB when the report was joined into one string first); the
        # bound leaves a 40 % margin.
        config = write_config(tmp_path, dims=[{"size": 1}] * 10_000, time=[0.5, 1.0, 2.0])
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", config, "--output", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20
        assert len(read_csv(str(out))) == 60_000

    def test_without_dense_large_product_is_fine(self, tmp_path):
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, dims=[{"size": 1} for _ in range(20)], time=1.0)
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        assert len(read_csv(str(out))) == 40

    def test_json_format(self, tmp_path):
        out = tmp_path / "out.json"
        config = edge_config(tmp_path, output={"format": "json"})
        code = main(["simulate", "--config", config, "--output", str(out)])
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
        # the eigensolver cannot resolve the urn's smallest weight, 2^-2200, whose
        # first component underflows; that is a property of the configured chain,
        # so it exits 2 like any other bad config
        config = write_config(tmp_path, dims=[{"size": 2200}])
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

    def test_large_urn_is_the_binomial_law(self, tmp_path):
        # from position 0 the urn's walk is Binomial(N, sin^2(t / N)); N = 2000, whose
        # gap 2 / N rounds below 1e-3, takes the SVD route: at most 1.4e-15 measured
        out = tmp_path / "out.csv"
        n, times = 2000, [0.7, 500.0, 1570.8]
        config = write_config(tmp_path, dims=[{"size": n}], time=times)
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        rows = read_csv(str(out))
        for t in times:
            got = np.array([float(r["probability"]) for r in rows if float(r["time"]) == t])
            expected = scipy.stats.binom.pmf(np.arange(n + 1), n, math.sin(t / n) ** 2)
            assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("block", [cli._CSV_BLOCK_ROWS, 1, 4])
    def test_streamed_csv_equals_the_row_list(self, tmp_path, monkeypatch, block):
        # The CSV is written from a generator of row blocks; the old form built
        # the list of rows first.  Both must give the same bytes.
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
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
            joint = dense_position_distribution(spec, t, j, 4096)
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

    @staticmethod
    def rows_written_one_at_a_time(config, dense: bool) -> str:
        """The CSV as simulate wrote it before blocks: one f-string per row."""
        from bdqw.ctqw import dense_position_distribution, position_distribution
        from bdqw.spectral import chain_spectra

        spec, j = config.spec, config.initial
        spectra = chain_spectra(spec)
        lines = ["time,dimension,position,probability\n"]
        for t in config.times:
            time = f"{t:.17g}"
            laws = list(enumerate(position_distribution(spec, spectra, t, j), start=1))
            if dense:
                laws.append(("joint", dense_position_distribution(spec, t, j, 10**6)))
            for dim, law in laws:
                law = law.tolist()
                lines.extend(f"{time},{dim},{pos},{p:.17g}\n" for pos, p in enumerate(law))
        return "".join(lines)

    @pytest.mark.parametrize(
        "argv, fields, rows",
        [
            # 5000 edges, an urn of 3 and a biased dimension of 4: 10 009 rows a time
            (
                [],
                {
                    "dims": [{"size": 1}] * 5000
                    + [{"size": 3}, {"size": 4, "p_table": [0.3, 0.55, 0.8]}],
                    "time": [-3.75, 1234.5],
                    "initial": [1, 0] * 2500 + [2, 3],
                },
                10_009,
            ),
            # a joint law of 5 * 7 * 10 * 13 = 4550 states after 35 marginal rows
            (
                ["--dense", "--oracle-cap", "5000"],
                {
                    "dims": [
                        {"size": 4},
                        {"size": 6, "p_table": [0.2, 0.7, 0.4, 0.5, 0.9]},
                        {"size": 9},
                        {"size": 12},
                    ],
                    "time": [-0.8, 2.5],
                    "initial": [1, 6, 0, 5],
                },
                35 + 4550,
            ),
        ],
    )
    def test_blocks_give_the_bytes_of_one_row_at_a_time(self, tmp_path, argv, fields, rows):
        # a time's rows cross block boundaries and end on a partial block
        block = cli._CSV_BLOCK_ROWS
        assert rows > block and rows % block
        config_path = write_config(tmp_path, **fields)
        out = tmp_path / "out.csv"
        assert main(["simulate", *argv, "--config", config_path, "--output", str(out)]) == 0
        dense = "--dense" in argv
        expected = self.rows_written_one_at_a_time(load_config(config_path), dense)
        assert_same_text(out.read_text(encoding="utf-8"), expected)
        assert expected.count("\n") == 1 + 2 * rows
        # the header, then per time one chunk per block of rows
        chunks = list(cli.run_simulate(load_config(config_path), 5000, dense)[1])
        assert len(chunks) == 1 + 2 * -(-rows // block)
        assert all(chunk.endswith("\n") for chunk in chunks)


class TestOutputTarget:
    """``--output -`` (stdout) and ``--output FILE`` get the same bytes from every subcommand."""

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["simulate"], {"dims": [{"size": 2}, {"size": 1}], "time": [0.5, 3.0]}),
            (
                ["simulate", "--dense"],
                {"dims": [{"size": 2}, {"size": 1}], "output": {"format": "json"}},
            ),
            (["verify"], {"dims": [{"size": 2}, {"size": 1}], "time": 1.0}),
            (["clt"], {"dims": [{"size": 2}], "time": 1.0, "d_sweep": [1, 4, 16]}),
            (
                ["bench"],
                {"dims": [{"size": 1}], "time": 1.0, "d_sweep": [2, 13], "output": {"format": "json"}},
            ),
            (["dump-spectrum"], {"dims": [{"size": 2}, {"size": 3}, {"size": 2}]}),
            (["dump-config"], {"dims": [{"size": 2}], "time": 1.0}),
        ],
    )
    def test_stdout_and_file_are_byte_identical(
        self, tmp_path, monkeypatch, capsysbinary, argv, fields
    ):
        # bench's timings are the one part of a report that differs between runs
        monkeypatch.setattr(cli, "_median_ms", lambda fn: (fn(), 1.0)[1])
        config, out = write_config(tmp_path, **fields), tmp_path / "out"
        assert main([*argv, "--config", config, "--output", "-"]) == 0
        stdout = capsysbinary.readouterr().out
        assert main([*argv, "--config", config, "--output", str(out)]) == 0
        assert stdout and stdout == out.read_bytes()

    @pytest.mark.parametrize("existing", [None, "an earlier report\n"])
    @pytest.mark.parametrize(
        "argv, formatter", [(["simulate"], "_fmt"), (["dump-spectrum"], "_json_array")]
    )
    def test_failing_while_formatting_leaves_the_file_as_it_was(
        self, tmp_path, monkeypatch, capsys, argv, formatter, existing
    ):
        # each formatter runs inside its report's chunk iterator, after the output is opened
        def exhaust(*args):
            raise MemoryError("Unable to allocate 1.00 GiB for an array")

        config, out = write_config(tmp_path, dims=[{"size": 2}], time=1.0), tmp_path / "out"
        if existing is not None:
            out.write_text(existing, encoding="utf-8")
        monkeypatch.setattr(cli, formatter, exhaust)
        assert main([*argv, "--config", config, "--output", str(out)]) == 3
        assert capsys.readouterr().err == "error: Unable to allocate 1.00 GiB for an array\n"
        assert (out.read_text(encoding="utf-8") if out.exists() else None) == existing
        assert sorted(path.name for path in tmp_path.iterdir()) == (
            ["config.json"] if existing is None else ["config.json", "out"]
        )

    def test_a_replaced_file_keeps_its_mode_and_a_link_is_followed(self, tmp_path):
        config = write_config(tmp_path, dims=[{"size": 1}])
        out, link = tmp_path / "out", tmp_path / "link"
        out.write_text("an earlier report\n", encoding="utf-8")
        out.chmod(0o600)
        link.symlink_to(out)
        assert main(["dump-config", "--config", config, "--output", str(link)]) == 0
        assert link.is_symlink() and out.stat().st_mode & 0o777 == 0o600
        assert parse_config(json.loads(out.read_text(encoding="utf-8"))) == load_config(config)

    @pytest.mark.parametrize(
        "kind, reason",
        [
            ("descriptor", "[Errno 9] Bad file descriptor"),
            ("read-only descriptor", "[Errno 9] Bad file descriptor"),
            ("file", "[Errno 2] No such file or directory"),
        ],
    )
    def test_an_output_that_cannot_be_opened_is_named_as_given(
        self, tmp_path, capsys, kind, reason
    ):
        # as a missing --config is named: not as the descriptor or the temporary
        # file; a descriptor open only for reading opens, and the write fails
        config = write_config(tmp_path, dims=[{"size": 1}])
        fd = os.open(os.devnull, os.O_RDONLY)
        if kind != "read-only descriptor":
            os.close(fd)
        out = str(tmp_path / "missing" / "out") if kind == "file" else f"/dev/fd/{fd}"
        try:
            assert main(["dump-config", "--config", config, "--output", out]) == 2
        finally:
            if kind == "read-only descriptor":
                os.close(fd)
        assert capsys.readouterr() == ("", f"error: {reason}: {out!r}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    def test_a_device_is_written_directly(self, tmp_path):
        config = write_config(tmp_path, dims=[{"size": 1}])
        assert main(["simulate", "--config", config, "--output", os.devnull]) == 0

    def test_a_link_to_a_device_is_written_through_the_link(self, tmp_path):
        config, link = write_config(tmp_path, dims=[{"size": 1}]), tmp_path / "link"
        link.symlink_to(os.devnull)
        assert main(["simulate", "--config", config, "--output", str(link)]) == 0
        assert link.is_symlink()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "link"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_named_pipe_is_written_directly(self, tmp_path):
        config = write_config(tmp_path, dims=[{"size": 1}])
        fifo, out = tmp_path / "fifo", tmp_path / "out"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = main(["simulate", "--config", config, "--output", str(fifo)])
        finally:
            reader.join(timeout=60)
        assert code == 0 and not reader.is_alive()
        assert main(["simulate", "--config", config, "--output", str(out)]) == 0
        assert received == [out.read_bytes()]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "fifo", "out"]


class TestCsvWriter:
    """The CSV text of a table is what csv.writer gives, on every CSV subcommand."""

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


def shifted_eigenvalue(s: SpectralData) -> SpectralData:
    values = s.eigenvalues.copy()
    values[3] += 1e-9
    return replace(s, eigenvalues=values)


def rotated_eigenvectors(s: SpectralData) -> SpectralData:
    """Eigenvectors 2 and 5 rotated by 1e-9 radians: still orthonormal."""
    c, sn = math.cos(1e-9), math.sin(1e-9)
    vectors = s.eigenvectors.copy()
    vectors[:, [2, 5]] = vectors[:, [2, 5]] @ np.array([[c, sn], [-sn, c]])
    return replace(s, eigenvectors=vectors)


def perturbed_kernel(s: SpectralData) -> SpectralData:
    """The spectrum of the 7-ball urn with p_table[2] raised by 1e-6."""
    table = list(ehrenfest_dimension(7).decrease_prob)
    table[2] += 1e-6
    return spectral.dimension_spectrum(DimensionSpec(size=7, decrease_prob=tuple(table)))


def frozen_lowest_eigenvalue(real, spec, spectra, x, t) -> np.ndarray:
    """The factorized side with dims[0]'s lowest eigenvalue read as 0."""
    first, *rest = spectra
    values = first.eigenvalues.copy()
    values[0] = 0.0
    return real(spec, (replace(first, eigenvalues=values), *rest), x, t)


# 8 x 16 x 16 Ehrenfest urns with distinct q at t = 7.3; each fault below,
# alone, in dims[0]'s spectrum or in the inputs (or the result) of the
# factorized side, must push theorem1_max_abs_err over the tolerance.
FAULT_CONFIG = parse_config(
    {"dims": [{"size": n} for n in (7, 15, 15)], "select_prob": [0.2, 0.3, 0.5], "time": 7.3}
)
SPECTRUM_FAULTS = {
    "eigenvalue + 1e-9": shifted_eigenvalue,
    "two eigenvectors rotated by 1e-9": rotated_eigenvectors,
    "p_table changed by 1e-6": perturbed_kernel,
}
# each fault takes the factorized side, _factorized_propagate, and its inputs
FACTOR_FAULTS = {
    # -t gives every U_l at -q_l t, U_l's conjugate: on a real probe it flips
    # the sign of the imaginary part of (x)_l U_l x, so the real probes must
    # see i's sign
    "phase sign flipped": lambda real, spec, spectra, x, t: real(spec, spectra, x, -t),
    "lowest eigenvalue frozen at 0": frozen_lowest_eigenvalue,
    # dims[1] and dims[2] share one spectrum, so swapping their q swaps their U's
    "q of dims[1] and dims[2] swapped": lambda real, spec, spectra, x, t: real(
        replace(spec, select_prob=(0.2, 0.5, 0.3)), spectra, x, t
    ),
    "U at t + 1e-6": lambda real, spec, spectra, x, t: real(spec, spectra, x, t + 1e-6),
    # the result of the three factors, each U_l times 1 + 1e-9
    "every U_l x (1 + 1e-9)": lambda real, *inputs: real(*inputs) * (1.0 + 1e-9) ** 3,
}


def scaled_columns(scales: dict[int, float]):
    """dims[0]'s eigenvectors with column c scaled by scales[c]: no longer orthonormal."""

    def fault(s: SpectralData) -> SpectralData:
        vectors = s.eigenvectors.copy()
        for c, scale in scales.items():
            vectors[:, c] *= scale
        return replace(s, eigenvectors=vectors)

    return fault


def sheared_eigenvectors(s: SpectralData) -> SpectralData:
    """V (I + 1e-9 S), S symmetric with ones at (2, 5) and (5, 2): not orthonormal."""
    shear = np.eye(s.n_states)
    shear[2, 5] = shear[5, 2] = 1e-9
    return replace(s, eigenvectors=s.eigenvectors @ shear)


# faults in dims[0]'s V that leave it non-orthonormal
BASIS_FAULTS = {
    "columns 2 and 5 x (1 +- 1e-9)": scaled_columns({2: 1.0 + 1e-9, 5: 1.0 - 1e-9}),
    "column 2 x (1 + 1e-9)": scaled_columns({2: 1.0 + 1e-9}),
    "V (I + 1e-9 sym(2, 5))": sheared_eigenvectors,
}


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
            ("_chebyshev_propagate", "theorem1_max_abs_err"),
            ("_factorized_propagate", "theorem1_max_abs_err"),
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
        # eigen-residual J V - V Lambda and the probe check, whose Chebyshev
        # side reads the configured kernel and no eigenpair, both fail them.
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
        assert report["theorem1_max_abs_err"] > cli.VERIFY_TOLERANCE
        for key in ("orthogonality_defect", "unitarity_defect"):
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
                tri = spectral.symmetrize(dim)
                s = spectral.dimension_spectrum(dim)
                v = s.eigenvectors
                expected = max(expected, np.max(np.abs(tri.to_dense() @ v - v * s.eigenvalues)))
            table = [{"size": dim.size, "p_table": list(dim.decrease_prob)} for dim in dims]
            config = write_config(tmp_path, dims=table, time=0.8)
            assert main(["verify", "--config", config, "--output", str(out)]) == 0
            assert abs(json.loads(out.read_text())["eigen_residual"] - expected) <= 1e-15

    def test_a_nan_in_one_propagator_entry_fails(self, tmp_path, monkeypatch):
        # a NaN in one entry of the V that the factorized side reads: it
        # carries the NaN into both probe readings
        real = cli._factorized_propagate

        def with_nan(spec, spectra, x, t):
            (s,) = spectra
            vectors = s.eigenvectors.copy()
            vectors[-1, -1] = np.nan
            return real(spec, (replace(s, eigenvectors=vectors),), x, t)

        monkeypatch.setattr(cli, "_factorized_propagate", with_nan)
        out = tmp_path / "report.json"
        config = write_config(tmp_path, dims=[{"size": 64}], time=1.0)
        assert main(["verify", "--config", config, "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert math.isnan(report["theorem1_max_abs_err"]) and math.isnan(report["unitarity_defect"])
        assert report["pass"] is False
        for key in ("orthogonality_defect", "eigen_residual", "detailed_balance_defect"):
            assert report[key] <= 1e-10

    def test_probe_stage_holds_a_few_probe_sized_arrays(self):
        # 8 x 16 x 16 states at t = 7.3: both sides of the probe check hold
        # arrays of the two real probes' size (32 KiB), where the dense U they
        # replace was a (2, size, size) slab of 64 MiB
        spec = FAULT_CONFIG.spec
        spectra = spectral.chain_spectra(spec)
        probes = cli._probes(spec.shape)
        tracemalloc.start()
        try:
            even, odd = cli._chebyshev_propagate(spec, probes.reshape(2, -1), 7.3)
            left = (even + 1j * odd).reshape(probes.shape)
            right = cli._factorized_propagate(spec, spectra, probes, 7.3)
            error = np.max(np.abs(left - right))
            norms = np.linalg.norm(probes.reshape(2, -1), axis=1)
            ratios = np.linalg.norm(right.reshape(2, -1), axis=1) / norms
            defect = np.max(np.abs(ratios * ratios - 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 524_288  # 16 times the probes' 32 768 bytes
        assert error <= 1e-12 and defect <= 1e-14

    def test_the_factorized_side_holds_no_n_by_n_array(self):
        # the N = 1100 urn: its V is 9.7 MB, and a complex matmul's complex copy
        # of it traced 18.5 MiB; real matmuls hold arrays of the probes' size
        config = parse_config({"dims": [{"size": 1100}], "time": 0.7})
        spectra = spectral.chain_spectra(config.spec)
        probes = cli._probes(config.spec.shape)
        tracemalloc.start()
        try:
            right = cli._factorized_propagate(config.spec, spectra, probes, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        ratios = np.linalg.norm(right, axis=1) / np.linalg.norm(probes, axis=1)
        assert np.max(np.abs(ratios - 1.0)) <= 1e-12

    def test_verify_holds_no_dense_kernel(self):
        # the N = 1100 urn: V is 9.25 MiB and the solve's peak 16.3; each dense
        # (n+1)^2 kernel beside V added 9.25 MiB, and two of them traced 27.9
        config = parse_config({"dims": [{"size": 1100}], "time": [0.7, 3.1]})
        cli.run_verify(config, 4096)  # LAPACK's first call, outside the trace
        tracemalloc.start()
        try:
            code, _ = cli.run_verify(config, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 20 * 2**20

    def test_balance_defects_are_the_dense_kernels(self):
        # O(n) from the step arrays; the dense pi @ m sums the same two products,
        # in an order (and with fused multiply-adds) of BLAS's choosing
        for dim in kernel_layer_dimensions():
            m, pi = build_conditional_matrix(dim), stationary_distribution(dim)
            pairwise, flow = cli._balance_defects(dim)
            dense_pairwise = pi[:-1] * np.diag(m, 1) - pi[1:] * np.diag(m, -1)
            assert pairwise.tobytes() == dense_pairwise.tobytes()
            assert np.max(np.abs(flow - (pi @ m - pi))) <= np.spacing(pi.max())

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (8, 16, 16)])
    def test_probes_are_the_seeded_standard_library_draws(self, shape):
        probes = cli._probes(shape)
        assert probes.shape == (2,) + shape and probes.dtype == float
        assert -1.0 <= probes.min() and probes.max() < 1.0
        assert cli._probes(shape).tobytes() == probes.tobytes()
        # getrandbits(64) per entry, not randbytes: the same stream read another way
        rng = random.Random(1977)
        words = [rng.getrandbits(64) >> 11 for _ in range(probes.size)]
        expected = [math.ldexp(w, -52) - 1.0 for w in words]
        assert np.array(expected).reshape(probes.shape).tobytes() == probes.tobytes()

    def test_probes_hold_only_arrays(self):
        # no Python object per entry: the bytes drawn (beside the generator's
        # integer of the same size), then the shifted words beside the probes,
        # 16 bytes per entry at the peak
        tracemalloc.start()
        try:
            probes = cli._probes((1 << 16,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_359_296  # twice the probes' 1 MiB, and 256 KiB

    def test_the_fault_chain_passes_without_a_fault(self):
        code, chunks = cli.run_verify(FAULT_CONFIG, bdqw.DEFAULT_ORACLE_CAP)
        report = json.loads("".join(chunks))
        assert code == 0 and report["pass"] is True
        assert report["theorem1_max_abs_err"] <= 1e-12

    @pytest.mark.parametrize("fault", SPECTRUM_FAULTS)
    def test_a_wrong_spectrum_fails_the_probe_check(self, monkeypatch, fault):
        # the dense U read the same eigenpairs as the factorized route, so it
        # could not see these; the Chebyshev side reads only the kernels
        real = cli.chain_spectra

        def with_fault(spec):
            first, *rest = real(spec)
            return (SPECTRUM_FAULTS[fault](first), *rest)

        monkeypatch.setattr(cli, "chain_spectra", with_fault)
        code, chunks = cli.run_verify(FAULT_CONFIG, bdqw.DEFAULT_ORACLE_CAP)
        assert json.loads("".join(chunks))["theorem1_max_abs_err"] > cli.VERIFY_TOLERANCE
        assert code == 1

    @pytest.mark.parametrize("fault", FACTOR_FAULTS)
    def test_a_wrong_factor_fails_the_probe_check(self, monkeypatch, fault):
        # the factorized side goes through the mutant, the Chebyshev side does not
        real, mutant = cli._factorized_propagate, FACTOR_FAULTS[fault]
        monkeypatch.setattr(cli, "_factorized_propagate", lambda *inputs: mutant(real, *inputs))
        code, chunks = cli.run_verify(FAULT_CONFIG, bdqw.DEFAULT_ORACLE_CAP)
        assert json.loads("".join(chunks))["theorem1_max_abs_err"] > cli.VERIFY_TOLERANCE
        assert code == 1

    def test_a_scaled_factor_fails_the_norm_check(self, monkeypatch):
        # each U_l times 1 + 1e-9 scales the probes' squared norms by (1 + 1e-9)^6
        real, fault = cli._factorized_propagate, FACTOR_FAULTS["every U_l x (1 + 1e-9)"]
        monkeypatch.setattr(cli, "_factorized_propagate", lambda *inputs: fault(real, *inputs))
        code, chunks = cli.run_verify(FAULT_CONFIG, bdqw.DEFAULT_ORACLE_CAP)
        assert json.loads("".join(chunks))["unitarity_defect"] > cli.VERIFY_TOLERANCE
        assert code == 1

    @pytest.mark.parametrize("fault", BASIS_FAULTS)
    def test_a_non_orthonormal_basis_fails(self, monkeypatch, fault):
        # the norm check need not see these: the probe and orthogonality checks do
        real = cli.chain_spectra

        def with_fault(spec):
            first, *rest = real(spec)
            return (BASIS_FAULTS[fault](first), *rest)

        monkeypatch.setattr(cli, "chain_spectra", with_fault)
        code, chunks = cli.run_verify(FAULT_CONFIG, bdqw.DEFAULT_ORACLE_CAP)
        report = json.loads("".join(chunks))
        assert report["theorem1_max_abs_err"] > cli.VERIFY_TOLERANCE
        assert report["orthogonality_defect"] > cli.VERIFY_TOLERANCE
        assert code == 1

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            dims=[{"size": 3}, {"size": 2, "p_table": [0.3]}, {"size": 4}],
            select_prob=[0.2, 0.3, 0.5],
            time=[-2.5, 0.0, 7.3],
        )
        argv = [sys.executable, "-m", "bdqw", "verify", "--config", config]
        env = {**os.environ, "PYTHONPATH": SRC}
        first, second = (subprocess.run(argv, env=env, capture_output=True) for _ in range(2))
        assert first.returncode == 0 and first.stderr == b""
        assert first.stdout == second.stdout

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

    def test_cap_checked_before_any_spectrum(self, tmp_path, monkeypatch):
        # 2^40 states: no spectrum may be solved and no probe propagated
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran over the cap")

        for route in ("chain_spectra", "_chebyshev_propagate", "_factorized_propagate"):
            monkeypatch.setattr(cli, route, refuse)
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
        fields = {"dims": [{"size": 2}], "time": 1.0, "d_sweep": [1, 4, 16]}
        assert main(["clt", "--config", write_config(tmp_path, **fields)]) == 0
        *rows, flag = csv.reader(io.StringIO(capsys.readouterr().out))
        config = write_config(tmp_path, "json.json", **fields, output={"format": "json"})
        assert main(["clt", "--config", config]) == 0
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

    def test_tables_equal_a_per_d_loop(self, tmp_path, capsys, monkeypatch):
        # an unsorted sweep with a repeat, d = 1 and a d with twelve set bits
        fields = {"dims": [{"size": 4}], "time": 3.1, "d_sweep": [64, 1, 4095, 64, 512]}
        configs = [
            write_config(tmp_path, f"{fmt}.json", **fields, output={"format": fmt})
            for fmt in ("csv", "json")
        ]
        texts = []
        for config in configs:
            assert main(["clt", "--config", config]) == 0
            texts.append(capsys.readouterr().out)
        monkeypatch.setattr(
            cli,
            "convolve_sweep",
            lambda factor, counts: (stats.convolve_sum([factor] * d) for d in counts),
        )
        for config, text in zip(configs, texts):
            assert main(["clt", "--config", config]) == 0
            assert capsys.readouterr().out == text

    @pytest.mark.parametrize("d", [2**58, 2**62, 2**63, 2**64])
    def test_unaddressable_d_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, d):
        # the law at d is 4d + 1 doubles, more than 2^63 - 1 bytes from d = 2^58
        # on; 2^63 used to escape main as an OverflowError from [factor] * d
        def refuse(*args, **kwargs):
            raise AssertionError("worked on a sweep whose law cannot be held")

        monkeypatch.setattr(cli, "chain_spectra", refuse)
        config = write_config(tmp_path, dims=[{"size": 4}], time=3.1, d_sweep=[8, d])
        assert main(["clt", "--config", config]) == 2
        assert "d_sweep" in capsys.readouterr().err

    def test_largest_addressable_d_passes_the_check(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def stop(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "chain_spectra", stop)
        # on an edge the law at d is d + 1 doubles
        largest = sys.maxsize // 8 - 1
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[largest])
        with pytest.raises(Reached):
            main(["clt", "--config", config])
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[largest + 1])
        assert main(["clt", "--config", config]) == 2

    def test_unallocatable_d_fails_at_once(self, tmp_path):
        # d = 2^40 passes the check, but its law (32 TiB) cannot be held: the
        # run must exit 3 out of memory, not square ever wider laws for hours.
        # The child's address space is capped at 4 GiB, so that a host which
        # overcommits memory refuses the allocation too.
        config = write_config(tmp_path, dims=[{"size": 4}], time=3.1, d_sweep=[8, 2**40])
        script = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32)); "
            "from bdqw.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-c", script, "clt", "--config", config],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 3
        assert "error: out of memory" in result.stderr


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
        config = write_config(
            tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[2, 13], output={"format": "json"}
        )
        assert main(["bench", "--config", config]) == 0
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

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str limit"
    )
    def test_a_huge_d_is_rejected_without_building_the_product_size(self, tmp_path, capsys):
        # 3^(10^7) has 4.8 million digits; building it to count them took 3.9 s
        config = write_config(tmp_path, dims=[{"size": 2}], d_sweep=[10**7])
        start = time.perf_counter()
        assert main(["bench", "--config", config]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: d_sweep: the product size at d=10000000 has too many digits to write\n"
        )

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str limit"
    )
    @pytest.mark.parametrize("n", [2, 3, 10, 121])
    def test_the_digit_check_near_the_limit_is_int_to_str(self, n):
        # around the limit d log10(n) is rounded, so the check must agree with str() exactly
        near = int((sys.get_int_max_str_digits() - 1) / math.log10(n))
        for d in range(near - 3, near + 4):
            try:
                str(n**d)
                written = True
            except ValueError:
                written = False
            assert cli._too_many_digits(n, d) is not written

    def test_underflowing_factorized_route_exits_2(self, tmp_path, capsys):
        # From position 1 to 0 on each of 2000 edges at T = 1 the probability is
        # 10^-13204.1, which no double holds; the route reports it, writing nothing.
        out = tmp_path / "bench.csv"
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, initial=[1], d_sweep=[2000])
        assert main(["bench", "--config", config, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: transition probability underflows")
        assert "10^-13204.1" in err
        assert not out.exists()

    def test_a_zero_probability_is_not_an_underflow(self, tmp_path):
        # From position 1 to 0 at T = 0 every edge's factor is rounding noise
        # (5e-34) and the exact probability is 0, so the sweep is reported.
        out = tmp_path / "bench.csv"
        config = write_config(tmp_path, dims=[{"size": 1}], time=0.0, initial=[1], d_sweep=[10, 40])
        assert main(["bench", "--config", config, "--output", str(out)]) == 0
        assert [row["product_size"] for row in read_csv(str(out))[:2]] == ["1024", "1099511627776"]

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        # stands in for numpy failing to allocate a dense array under a huge cap
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr(cli, "dense_position_distribution", exhaust)
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
        assert float(stationary_distribution(dim).min()) == 0.0
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

    @pytest.mark.parametrize("argv", [["simulate", "--dense"], ["verify"], ["dump-spectrum"]])
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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_dump_config_round_trips_every_resolved_field(self, data):
        # parse_config reads dump-config's text back to the parsed config,
        # field for field, whatever the config left out or set to null; the
        # text holds every key of the experiment and no run setting
        draw = data.draw

        def maybe(strategy):
            return st.one_of(st.just(None), strategy)

        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        table = lambda n: st.lists(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1)  # noqa: E731
        tables = [draw(maybe(st.just("ehrenfest") | table(n))) for n in sizes]
        weights = draw(st.lists(st.floats(1.0, 3.0), min_size=len(sizes), max_size=len(sizes)))
        time = st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
        output = st.fixed_dictionaries({}, optional={"format": st.sampled_from(["csv", "json"])})
        fields = {
            "dims": [{"size": n, **({} if t is None else {"p_table": t})} for n, t in zip(sizes, tables)],
            "select_prob": draw(maybe(st.sampled_from(["uniform", [w / sum(weights) for w in weights]]))),
            "time": draw(maybe(time | st.lists(time, min_size=1, max_size=3))),
            "initial": draw(maybe(st.tuples(*(st.integers(0, n) for n in sizes)).map(list))),
            "output": draw(maybe(output)),
            "d_sweep": draw(maybe(st.lists(st.integers(1, 100), min_size=1, max_size=3))),
        }
        nullable = ("output", "d_sweep")  # null reads as absent
        config = {
            key: value
            for key, value in fields.items()
            if value is not None or key in nullable and draw(st.booleans())
        }
        parsed = parse_config(config)

        code, chunks = cli.run_dump_config(parsed)
        dumped = json.loads("".join(chunks))
        assert code == 0
        keys = ["dims", "select_prob", "time", "initial", "output"]
        assert list(dumped) == keys + ([] if parsed.d_sweep is None else ["d_sweep"])
        assert list(dumped["output"]) == ["format"]
        assert parse_config(dumped) == parsed

    def test_dump_spectrum_text_and_one_solve_per_distinct_dimension(self, tmp_path, monkeypatch):
        solved = []
        solve = spectral.dimension_spectrum

        def counting(dim):
            solved.append(dim)
            return solve(dim)

        monkeypatch.setattr(spectral, "dimension_spectrum", counting)
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

    def test_dump_spectrum_takes_its_spectra_from_the_shared_stage(self, tmp_path, monkeypatch):
        calls = []
        shared = cli.chain_spectra

        def recording(spec):
            calls.append(spec)
            return shared(spec)

        monkeypatch.setattr(cli, "chain_spectra", recording)
        config = write_config(tmp_path, dims=[{"size": 2}, {"size": 1}, {"size": 2}], time=1.0)
        out = tmp_path / "spectrum.json"
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
        assert calls == [load_config(config).spec]
        assert out.read_text(encoding="utf-8") == dumped_spectra(calls[0].dims)

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
        code, chunks = cli.run_dump_spectrum(config)
        assert code == 0
        assert_same_text("".join(chunks), dumped_spectra(config.spec.dims))

    def test_dump_spectrum_streams_rows(self):
        # the urn of dims[0] recurs at dims[2]; the urn of dims[1] appears once
        config = parse_config({"dims": [{"size": 40}, {"size": 30}, {"size": 40}]})
        code, chunks = cli.run_dump_spectrum(config)
        chunks = list(chunks)
        assert code == 0
        assert_same_text("".join(chunks), dumped_spectra(config.spec.dims))
        # no chunk holds more than one row of floats, repeated or not
        assert max(chunk.count(",") for chunk in chunks) < 41

    def test_dump_spectrum_is_not_held_as_text(self, tmp_path):
        # The urn-deep workload's three urns: 3.0 MB of JSON from 0.74 MB of
        # eigenpairs.  The traced peak of the whole run was 2.6 MiB (6.3 MiB
        # when each dimension's text was joined and kept); the bound leaves a
        # 50 % margin.
        config = write_config(tmp_path, dims=[{"size": n} for n in (240, 160, 96)], time=1.0)
        out = tmp_path / "spectrum.json"
        tracemalloc.start()
        try:
            assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert out.stat().st_size == 3_022_377

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_dump_spectrum_text_of_the_smallest_sizes(self, size):
        # even and odd numbers of states: an odd one's middle column is unpaired
        rng = np.random.default_rng(size)
        dims = [ehrenfest_dimension(size), random_dimension_spec(rng, max_size=size)]
        config = parse_config({"dims": [{"size": d.size, "p_table": list(d.decrease_prob)} for d in dims]})
        code, chunks = cli.run_dump_spectrum(config)
        assert code == 0
        assert_same_text("".join(chunks), dumped_spectra(config.spec.dims))

    @pytest.mark.parametrize("key", ["eigenvalues", "eigenvectors"])
    def test_dump_spectrum_rejects_a_broken_mirror(self, tmp_path, monkeypatch, capsys, key):
        # the text of each pair's second half is made from its first: a spectrum
        # that is not mirrored bit for bit, a sign of zero included, is refused
        solve = spectral.dimension_spectrum

        def broken(dim):
            data = solve(dim)
            arrays = {"eigenvalues": data.eigenvalues, "eigenvectors": data.eigenvectors}
            arrays[key] = arrays[key].copy()
            arrays[key][..., -1] = np.nextafter(arrays[key][..., -1], 2.0)
            return SpectralData(**arrays)

        monkeypatch.setattr(spectral, "dimension_spectrum", broken)
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 3}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 2
        message = f"{key} is not mirrored, which the spectrum's symmetry requires"
        assert capsys.readouterr().err == f"error: dims[0] (size 3): {message}\n"
        assert not out.exists()

    def test_dump_spectrum_refuses_a_subnormal_first_component(self, tmp_path, capsys):
        # the urn's smallest first component, 2^-1050 = 8.3e-317, is subnormal at
        # N = 2100, with 24 bits, and its log-weight is off by 7.6e-10 (by 1.4 at
        # N = 2150, where 2^-1075 rounds to the smallest subnormal)
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 2}, {"size": 2100}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dims[1] (size 2100): log_weights would come from the subnormal")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["eigenvalues", "eigenvectors"])
    def test_dump_spectrum_rejects_a_non_finite_value(self, tmp_path, monkeypatch, capsys, key):
        # json.dumps would write NaN, which is not JSON
        solve = spectral.dimension_spectrum

        def with_nan(dim):
            data = solve(dim)
            arrays = {"eigenvalues": data.eigenvalues, "eigenvectors": data.eigenvectors}
            arrays[key] = arrays[key].copy()
            arrays[key][0] = math.nan  # an eigenvalue, or every first component and log-weight
            return SpectralData(**arrays)

        monkeypatch.setattr(spectral, "dimension_spectrum", with_nan)
        out = tmp_path / "spectrum.json"
        config = write_config(tmp_path, dims=[{"size": 2}], time=1.0)
        assert main(["dump-spectrum", "--config", config, "--output", str(out)]) == 2
        message = f"{key} holds a non-finite value, which JSON cannot write"
        assert capsys.readouterr().err == f"error: dims[0] (size 2): {message}\n"
        assert not out.exists()


class TestSpectralFailureNamesItsDimension:
    """A chain the eigensolver cannot resolve: exit 2 naming the first dims entry.

    The Ehrenfest urn of 2200 balls: its smallest first component, 2^-1100, is
    below the smallest subnormal double, so the solve refuses it as vanishing.
    """

    MESSAGE = "eigenvector with vanishing first component"

    @pytest.mark.parametrize("command", ["simulate", "verify", "dump-spectrum"])
    def test_chain(self, tmp_path, capsys, command):
        urn = {"size": 2200}
        config = write_config(tmp_path, dims=[{"size": 2}, urn, {"size": 2}, urn], time=1.0)
        out = tmp_path / "out"
        # a cap above the product size, so that verify reaches the eigensolver
        argv = [command, "--config", config, "--output", str(out), "--oracle-cap", str(10**8)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: dims[1] (size 2200): {self.MESSAGE}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["clt", "bench"])
    def test_sweep(self, tmp_path, capsys, command):
        config = write_config(tmp_path, dims=[{"size": 2200}], time=1.0, d_sweep=[2])
        out = tmp_path / "out"
        assert main([command, "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dims[0] (size 2200): {self.MESSAGE}\n"
        assert not out.exists()


class TestOracleCapResolution:
    @pytest.mark.parametrize(
        "cap, time, field",
        [(4, [1.0, -5.0], "time[1]: -5.0"), (2, [3.0, 1.0], "time[0]: 3.0")],
    )
    def test_a_time_over_the_cap_exits_3_before_any_spectrum(
        self, tmp_path, capsys, monkeypatch, cap, time, field
    ):
        # verify's Chebyshev check takes about |t| terms, so the cap bounds |t| too
        def refuse(spec):
            raise AssertionError("a spectrum was solved for a time over the cap")

        monkeypatch.setattr(cli, "chain_spectra", refuse)
        out = tmp_path / "out"
        config = edge_config(tmp_path, time=time)
        argv = ["--output", str(out), "--oracle-cap", str(cap)]
        assert main(["verify", "--config", config, *argv]) == 3
        assert capsys.readouterr().err == (
            f"error: {field} is beyond the oracle cap of {cap} on |t|: "
            "the Chebyshev series takes about |t| terms\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--oracle-cap", "5"], []])
    def test_the_cap_sources_raise_the_time_bound(self, tmp_path, argv):
        # a cap of 4 rejects t = -5; a cap of 5 or the default admits it, as
        # they raise the size cap, and the bound on |t| is inclusive
        config = edge_config(tmp_path, time=[1.0, -5.0])
        assert main(["verify", "--config", config, *argv]) == 0

    @pytest.mark.parametrize("argv", [["simulate"], ["dump-spectrum"]])
    def test_the_time_bound_spares_the_spectral_routes(self, tmp_path, argv):
        config = edge_config(tmp_path, time=[1.0, -5.0])
        out = str(tmp_path / "out")
        assert main([*argv, "--config", config, "--output", out, "--oracle-cap", "4"]) == 0

    def test_a_time_over_the_cap_stops_the_oracle_column(self, tmp_path, capsys, monkeypatch):
        # simulate --dense's column takes about |t| Chebyshev terms too: it exits 3
        # before any spectrum is solved, and writes nothing
        def refuse(spec):
            raise AssertionError("a spectrum was solved for a time over the cap")

        monkeypatch.setattr(cli, "chain_spectra", refuse)
        out = tmp_path / "out"
        config = edge_config(tmp_path, time=[5.0, 1.0])
        argv = ["--config", config, "--output", str(out), "--oracle-cap", "4"]
        assert main(["simulate", "--dense", *argv]) == 3
        assert capsys.readouterr().err == (
            "error: time[0]: 5.0 is beyond the oracle cap of 4 on |t|: "
            "the Chebyshev series takes about |t| terms\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["verify"], ["simulate", "--dense"]])
    def test_a_huge_product_space_exits_3_in_a_short_message(self, tmp_path, capsys, argv):
        # 2^15000 states have 4516 digits, past int-to-str's default limit of 4300:
        # writing them raised ValueError, which exited 2
        out = tmp_path / "out"
        config = write_config(tmp_path, dims=[{"size": 1}] * 15000, time=1.0)
        assert main([*argv, "--config", config, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: product space has at least 2^15000 states, exceeding the oracle cap of 4096\n"
        )
        assert len(err.encode()) < 200
        assert not out.exists()

    def test_bench_skips_the_column_for_a_time_over_the_cap(self, tmp_path):
        # 4 states fit the cap of 4 and T = 5 does not: the dense cell is skipped,
        # as it is for a size over the cap, and the factorized cell is filled
        out = tmp_path / "bench.csv"
        config = write_config(tmp_path, dims=[{"size": 1}], time=5.0, d_sweep=[2])
        assert main(["bench", "--config", config, "--output", str(out), "--oracle-cap", "4"]) == 0
        row = read_csv(str(out))[0]
        assert row["product_size"] == "4" and row["dense_ms"] == "skipped"
        assert float(row["factorized_ms"]) > 0.0 and row["ratio"] == ""

    @pytest.mark.parametrize(
        "argv", [["verify", "--oracle-cap", "0"], ["simulate", "--dense", "--oracle-cap", "-5"]]
    )
    def test_non_positive_flag_exits_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--config", two_edge_config(tmp_path)]) == 2
        assert "--oracle-cap" in capsys.readouterr().err


class TestResolution:
    """Each setting has one source, the config or a flag, checked on every subcommand."""

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_each_flag_carries_its_default(self, command):
        # no config key overlays them: the defaults are the flags' own
        args = cli.build_parser().parse_args([command, "--config", "unused.json"])
        assert (args.oracle_cap, args.output) == (bdqw.DEFAULT_ORACLE_CAP, "-") == (4096, "-")

    # Every subcommand checks both flags and the config's keys and times, also
    # those that never run the oracle or never read a time.
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize(
        "argv, fields, field",
        [
            (["--oracle-cap", "0"], {}, "--oracle-cap"),
            (["--output="], {}, "--output"),
            ([], {"oracle_cap": 4096}, "oracle_cap: unknown key"),
            ([], {"output": {"path": "-"}}, "output.path: unknown key"),
            ([], {"time": "soon"}, "time[0]"),
            ([], {"time": [1.0, math.inf]}, "time[1]"),
        ],
    )
    def test_malformed_setting_exits_2_everywhere(
        self, tmp_path, capsys, command, argv, fields, field
    ):
        fields = {"dims": [{"size": 1}], "time": 1.0, "d_sweep": [2], **fields}
        assert main([command, "--config", write_config(tmp_path, **fields), *argv]) == 2
        assert field in capsys.readouterr().err

    # The times and the output format come from the config alone.
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("flag", [["--time", "0.5"], ["--format", "json"]])
    def test_removed_flags_are_rejected_everywhere(self, tmp_path, capsys, command, flag):
        out = tmp_path / "report"
        config = write_config(tmp_path, dims=[{"size": 1}], time=1.0, d_sweep=[2])
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config, "--output", str(out), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("env", ["", "many", "1000"])
    def test_the_environment_has_no_effect(self, tmp_path, monkeypatch, capsys, env):
        # the cap comes from --oracle-cap alone: BDQW_ORACLE_CAP,
        # blank, malformed or below the benchmark's 2048 verify states, is not read
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        verify = workloads.generate("oracle-verify", 21)[0].config
        clt = workloads.generate("clt-sweep", 21)[0].config
        calls = [
            ["verify", "--config", write_config(tmp_path, "verify.json", **verify)],
            ["clt", "--config", write_config(tmp_path, "clt.json", **clt)],
            ["dump-spectrum", "--config", write_config(tmp_path, "spectrum.json", **verify)],
            ["dump-config", "--config", write_config(tmp_path, "dump.json", **verify)],
        ]
        monkeypatch.delenv("BDQW_ORACLE_CAP", raising=False)
        unset = []
        for argv in calls:
            assert main(argv) == 0
            unset.append(capsys.readouterr())
        monkeypatch.setenv("BDQW_ORACLE_CAP", env)
        for argv, expected in zip(calls, unset):
            assert main(argv) == 0
            assert capsys.readouterr() == expected

    def test_subcommands_read_the_cap_that_main_checked(self, tmp_path, capsys):
        # two edges have 4 states: --oracle-cap 2 exits 3, and 64 passes
        config = two_edge_config(tmp_path, time=1.0)
        assert main(["verify", "--config", config, "--oracle-cap", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: product space has 4 states, exceeding the oracle cap of 2\n"
        )
        code, chunks = cli.run_verify(load_config(config), 64)
        assert code == 0 and json.loads("".join(chunks))["pass"] is True


EDGE = {"size": 1}
BIG = "1" + "0" * 400  # a JSON integer with no double value
TOP_KEYS = "dims, select_prob, time, initial, output, d_sweep"
# One edge selected with q = 1: |t| q eps reaches VERIFY_TOLERANCE at |t| = 450359.96...
BUDGET = "is beyond the phase budget |t| <= 450360, where |t| max q_l eps is 1e-10"


def case(config, message, argv=(), code=2, dumped=None, id=None):
    """A row of the table: a config (a dict, or the file's text) and flags."""
    return pytest.param(config, list(argv), code, message, dumped, id=id)


# Every rejection of a config or a flag, with its full stderr, and the inputs
# next to them that are accepted.  argparse's own rejections (a non-integer
# --oracle-cap, an unknown flag such as --time or --format) are not here:
# their text is argparse's.  The last rows are the rejections of an empty
# output path (in the config, where the key is now unknown, and as --output),
# a time beyond the phase budget and a config nested too deeply for json.
REJECTIONS = [
    # the object checks
    case([{"dims": [EDGE]}], "config: top level must be a JSON object", id="top-list"),
    case(None, "config: top level must be a JSON object", id="top-null"),
    case('{"dims": [{"size": 1}],}', "config is not valid JSON at line 1 column 24: "
         "Expecting property name enclosed in double quotes", id="not-json"),
    case({"dims": [EDGE], "times": [0.5]}, f"times: unknown key, expected one of {TOP_KEYS}"),
    case({"dims": [EDGE], "intial": [1]}, f"intial: unknown key, expected one of {TOP_KEYS}"),
    case({"dims": [EDGE, {"size": 2, "ptable": [0.3]}]},
         "dims[1].ptable: unknown key, expected one of size, p_table"),
    case({"dims": [EDGE], "output": {"format": "csv", "fmt": "json"}},
         "output.fmt: unknown key, expected one of format"),
    case('{"dims": [{"size": 1}], "time": 1.0, "time": 2.0}', "config: duplicate key 'time'",
         id="duplicate-top"),
    case('{"dims": [{"size": 1, "size": 2}]}', "config: duplicate key 'size'", id="duplicate-dim"),
    case('{"dims": [{"size": 1}], "output": {"format": "csv", "format": "json"}}',
         "config: duplicate key 'format'", id="duplicate-output"),
    # dims
    case({"time": 1.0}, "dims: expected a non-empty list of dimension objects", id="dims-absent"),
    case({"dims": []}, "dims: expected a non-empty list of dimension objects"),
    case({"dims": "x"}, "dims: expected a non-empty list of dimension objects"),
    case({"dims": [EDGE, [1]]}, "dims[1]: expected an object with 'size' and 'p_table'"),
    case({"dims": [None]}, "dims[0]: expected an object with 'size' and 'p_table'"),
    case({"dims": [{"size": 0}]}, "dims[0].size: expected a positive integer, got 0"),
    case({"dims": [EDGE, {"size": True}]}, "dims[1].size: expected a positive integer, got True"),
    case({"dims": [{"size": 1.0}]}, "dims[0].size: expected a positive integer, got 1.0"),
    case({"dims": [{"size": "2"}]}, "dims[0].size: expected a positive integer, got '2'"),
    case({"dims": [{"p_table": "ehrenfest"}]},
         "dims[0].size: expected a positive integer, got None", id="size-absent"),
    case({"dims": [{"size": 2, "p_table": "[0.5]"}]},
         "dims[0].p_table: expected 'ehrenfest' or a list of probabilities"),
    case({"dims": [{"size": 2, "p_table": None}]},
         "dims[0].p_table: expected 'ehrenfest' or a list of probabilities"),
    case({"dims": [{"size": 2, "p_table": [0.5, 0.5]}]},
         "dims[0].p_table: decrease_prob needs 1 interior entries, got 2"),
    case({"dims": [{"size": 3, "p_table": [0.5, 1.5]}]},
         "dims[0].p_table: decrease_prob[2] = 1.5 is not strictly inside (0, 1)"),
    case({"dims": [{"size": 2, "p_table": ["0.5"]}]},
         "dims[0].p_table[0]: expected a real number, got '0.5'"),
    case({"dims": [EDGE, {"size": 3, "p_table": [0.5, False]}]},
         "dims[1].p_table[1]: expected a real number, got False"),
    case('{"dims": [{"size": 2, "p_table": [NaN]}]}',
         "dims[0].p_table[0]: value nan is not a finite double", id="p_table-nan"),
    case(f'{{"dims": [{{"size": 2, "p_table": [{BIG}]}}]}}',
         f"dims[0].p_table[0]: value {BIG} is not a finite double", id="p_table-big-int"),
    # select_prob
    case({"dims": [EDGE], "select_prob": 1.0}, "select_prob: expected 'uniform' or a list of reals"),
    case({"dims": [EDGE], "select_prob": None}, "select_prob: expected 'uniform' or a list of reals"),
    case({"dims": [EDGE], "select_prob": [0.5]}, "select_prob entries must sum to 1"),
    case({"dims": [EDGE] * 2, "select_prob": [0.5, 0.6]}, "select_prob entries must sum to 1"),
    case({"dims": [EDGE] * 2, "select_prob": [0, 1]},
         "select_prob entry 0.0 is not finite and strictly positive"),
    case({"dims": [EDGE] * 2, "select_prob": [-0.5, 1.5]},
         "select_prob entry -0.5 is not finite and strictly positive"),
    case({"dims": [EDGE], "select_prob": [True]}, "select_prob[0]: expected a real number, got True"),
    case({"dims": [EDGE] * 2, "select_prob": ["0.25", 0.75]},
         "select_prob[0]: expected a real number, got '0.25'"),
    case('{"dims": [{"size": 1}], "select_prob": [NaN]}',
         "select_prob[0]: value nan is not a finite double", id="select_prob-nan"),
    case(f'{{"dims": [{{"size": 1}}, {{"size": 1}}], "select_prob": [{BIG}, 0.5]}}',
         f"select_prob[0]: value {BIG} is not a finite double", id="select_prob-big-int"),
    # time
    case({"dims": [EDGE], "time": []}, "time: expected at least one value"),
    case({"dims": [EDGE], "time": "soon"}, "time[0]: expected a real number, got 'soon'"),
    case({"dims": [EDGE], "time": None}, "time[0]: expected a real number, got None"),
    case({"dims": [EDGE], "time": [0.5, "2"]}, "time[1]: expected a real number, got '2'"),
    case('{"dims": [{"size": 1}], "time": Infinity}', "time[0]: value inf is not a finite double",
         id="time-inf"),
    case('{"dims": [{"size": 1}], "time": [0.5, 1e309]}',
         "time[1]: value inf is not a finite double", id="time-1e309"),
    case(f'{{"dims": [{{"size": 1}}], "time": {BIG}}}',
         f"time[0]: value {BIG} is not a finite double", id="time-big-int"),
    case('{"dims": [{"size": 1}], "time": [1.0, NaN]}', "time[1]: value nan is not a finite double",
         id="time-nan"),
    case({"dims": [EDGE], "time": ""}, "time[0]: expected a real number, got ''", id="time-blank"),
    # initial
    case({"dims": [EDGE], "initial": [0, 0]}, "initial: expected a list of 1 positions"),
    case({"dims": [EDGE], "initial": "0"}, "initial: expected a list of 1 positions"),
    case({"dims": [EDGE], "initial": None}, "initial: expected a list of 1 positions"),
    case({"dims": [EDGE], "initial": [5]}, "initial: position 5 out of range 0..1"),
    case({"dims": [EDGE], "initial": [-1]}, "initial: position -1 out of range 0..1"),
    case({"dims": [EDGE], "initial": [True]}, "initial[0]: expected an integer position, got True"),
    case({"dims": [EDGE], "initial": [0.0]}, "initial[0]: expected an integer position, got 0.0"),
    case({"dims": [EDGE], "initial": ["1"]}, "initial[0]: expected an integer position, got '1'"),
    # --oracle-cap, the cap's one source: the config key is unknown, whatever its value
    case({"dims": [EDGE], "oracle_cap": 4096}, f"oracle_cap: unknown key, expected one of {TOP_KEYS}"),
    case({"dims": [EDGE], "oracle_cap": 0}, f"oracle_cap: unknown key, expected one of {TOP_KEYS}"),
    case({"dims": [EDGE], "oracle_cap": None}, f"oracle_cap: unknown key, expected one of {TOP_KEYS}"),
    case({"dims": [EDGE], "oracle_cap": 7}, f"oracle_cap: unknown key, expected one of {TOP_KEYS}",
         ["--oracle-cap", "7"], id="oracle_cap-with-flag"),
    case({"dims": [EDGE]}, "--oracle-cap: expected a positive integer, got 0", ["--oracle-cap", "0"]),
    case({"dims": [EDGE]}, "--oracle-cap: expected a positive integer, got -5",
         ["--oracle-cap", "-5"]),
    # output, and --output, the path's one source: output.path is unknown, whatever its value
    case({"dims": [EDGE], "output": "out.csv"}, "output: expected an object with 'format'"),
    case({"dims": [EDGE], "output": []}, "output: expected an object with 'format'"),
    case({"dims": [EDGE], "output": False}, "output: expected an object with 'format'"),
    case({"dims": [EDGE], "output": {"path": "-"}}, "output.path: unknown key, expected one of format"),
    case({"dims": [EDGE], "output": {"path": 3}}, "output.path: unknown key, expected one of format"),
    case({"dims": [EDGE], "output": {"path": None}},
         "output.path: unknown key, expected one of format"),
    case({"dims": [EDGE], "output": {"format": "xml"}},
         "output.format: expected 'csv' or 'json', got 'xml'"),
    case({"dims": [EDGE], "output": {"format": None}},
         "output.format: expected 'csv' or 'json', got None"),
    # d_sweep
    case({"dims": [EDGE], "d_sweep": []}, "d_sweep: expected a non-empty list of positive integers"),
    case({"dims": [EDGE], "d_sweep": "x"}, "d_sweep: expected a non-empty list of positive integers"),
    case({"dims": [EDGE], "d_sweep": 0}, "d_sweep: expected a non-empty list of positive integers"),
    case({"dims": [EDGE], "d_sweep": [2, 0]}, "d_sweep: expected positive integers, got 0"),
    case({"dims": [EDGE], "d_sweep": [2.0]}, "d_sweep: expected positive integers, got 2.0"),
    case({"dims": [EDGE], "d_sweep": [True]}, "d_sweep: expected positive integers, got True"),
    # accepted: a null read as an absent key, and the flags, which the dump does not hold
    case({"dims": [EDGE], "output": None}, "", code=0, dumped={"output": {"format": "csv"}}),
    case({"dims": [EDGE], "output": {"format": "json"}}, "", ["--oracle-cap", "7", "--output", "-"],
         code=0, dumped={"output": {"format": "json"}}, id="flags"),
    case({"dims": [EDGE], "d_sweep": None}, "", code=0, dumped={"time": [1.0]}),
    case({"dims": [EDGE], "time": 450359}, "", code=0, dumped={"time": [450359.0]},
         id="time-inside-budget"),
    # rejected since the phase budget, the empty-path check and the nesting check
    case({"dims": [EDGE], "output": {"path": ""}},
         "output.path: unknown key, expected one of format", id="new-output-path-empty"),
    case({"dims": [EDGE]}, "--output: expected a file name or '-' for stdout, got ''",
         ["--output="], id="new-output-flag-empty"),
    case({"dims": [EDGE], "time": 1e17}, f"time[0]: 1e+17 {BUDGET}", id="new-time-1e17"),
    case({"dims": [EDGE], "time": [1.0, -450361]}, f"time[1]: -450361.0 {BUDGET}",
         id="new-time-beyond-budget"),
    # json gave up with a RecursionError: a traceback and exit 1
    case('{"dims": ' + "[" * 100_000, "config: nested too deeply to parse", id="new-deep"),
]


class TestEveryRejection:
    @pytest.mark.parametrize("config, argv, code, message, dumped", REJECTIONS)
    def test_exit_code_and_full_stderr(self, tmp_path, capsys, config, argv, code, message, dumped):
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        assert main(["dump-config", "--config", str(path), *argv]) == code
        out, err = capsys.readouterr()
        assert err == (f"error: {message}\n" if message else "")
        if dumped is None:
            assert out == ""
        else:
            assert json.loads(out).items() >= dumped.items()
            assert "oracle_cap" not in out and "path" not in out


MANY_EDGES = ", ".join(['{"size": 1}'] * 10_000)  # dims[0 .. 9999], one run of equal entries


class TestRunsOfEqualEntries:
    """10 000 equal dims entries are checked as one; the bytes of every message stay."""

    @pytest.mark.parametrize(
        "last, message",
        [
            ('{"size": 0}', "dims[10000].size: expected a positive integer, got 0"),
            ('{"size": 1, "sise": 2}', "dims[10000].sise: unknown key, expected one of size, p_table"),
            ('{"size": 1, "size": 1}', "config: duplicate key 'size'"),
        ],
        ids=["size-0", "unknown-key", "duplicate-key"],
    )
    def test_a_bad_entry_after_a_run_is_named(self, tmp_path, capsys, last, message):
        path = tmp_path / "config.json"
        path.write_text(f'{{"dims": [{MANY_EDGES}, {last}]}}', encoding="utf-8")
        assert main(["dump-config", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ("1, 1.0, true", "dims[1].size: expected a positive integer, got 1.0"),
            ("1, 1, true", "dims[2].size: expected a positive integer, got True"),
            ("true, 1", "dims[0].size: expected a positive integer, got True"),
            ("1, 1, 1", ""),
        ],
    )
    def test_equal_sizes_of_other_types_stay_apart(self, tmp_path, capsys, sizes, message):
        # 1 == 1.0 == True, so a run of equal entries must not hide the types
        entries = ", ".join(f'{{"size": {size}}}' for size in sizes.split(", "))
        path = tmp_path / "config.json"
        path.write_text(f'{{"dims": [{entries}]}}', encoding="utf-8")
        assert main(["dump-config", "--config", str(path)]) == (2 if message else 0)
        assert capsys.readouterr().err == (f"error: {message}\n" if message else "")

    def test_a_run_shares_one_spec(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(f'{{"dims": [{MANY_EDGES}]}}', encoding="utf-8")
        spec = load_config(str(path)).spec
        assert len({id(dim) for dim in spec.dims}) == 1
        assert spec.distinct == ((0,), (0,) * 10_000)


class TestNewRejections:
    """A time beyond the phase budget and an empty output path, on the subcommands that write.

    The table above holds their messages and that of a config nested too deeply.
    """

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "time, field, value",
        [(1e17, "time[0]", "1e+17"), ([2.0, -5e5], "time[1]", "-500000.0")],
    )
    def test_a_time_beyond_the_phase_budget_exits_2(
        self, tmp_path, capsys, command, time, field, value
    ):
        # at t = 1e17 one edge's phase is off by about 11 radians: simulate
        # printed 0.784/0.216 and verify passed, both with exit 0
        out = tmp_path / "out"
        config = edge_config(tmp_path, time=time)
        assert main([command, "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {field}: {value} {BUDGET}\n")
        assert not out.exists()

    def test_the_phase_budget_scales_with_the_largest_selection_probability(self):
        # 1e-10 / (eps * 0.75) = 600479.95...
        fields = {"dims": [{"size": 1}] * 2, "select_prob": [0.25, 0.75]}
        assert parse_config({**fields, "time": [-600479, 600479]}).times == (-600479.0, 600479.0)
        budget = r"is beyond the phase budget \|t\| <= 600480,"
        with pytest.raises(ValueError, match=rf"^time\[0\]: 600480.0 {budget}"):
            parse_config({**fields, "time": 600480.0})

    def test_the_edge_swarm_times_are_inside_the_budget(self):
        # 10 000 edges at q_l near 1e-4 need t near 1e4 for q_l t near one
        weights = [1.0 + (l % 3) for l in range(10_000)]
        total = sum(weights)
        select_prob = [w / total for w in weights]
        config = {"dims": [{"size": 1}] * 10_000, "select_prob": select_prob, "time": 2e4}
        assert parse_config(config).times == (2e4,)

    @pytest.mark.parametrize(
        "fields, argv, message",
        [
            ({"output": {"path": ""}}, [], "output.path: unknown key, expected one of format"),
            ({}, ["--output="], "--output: expected a file name or '-' for stdout, got ''"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "dump-config"])
    def test_an_empty_output_path_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, fields, argv, message, command
    ):
        # --output= wrote to stdout; "path": "" made a temporary file beside
        # the working directory and failed with "Is a directory: ''"
        config = edge_config(tmp_path, **fields)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([command, "--config", config, *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(os.listdir(tmp_path)) == ["config.json", "work"] and not os.listdir(work)


class TestEntryPoint:
    def test_every_public_name_resolves(self):
        assert [name for name in bdqw.__all__ if not hasattr(bdqw, name)] == []

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["verify"], {"dims": [{"size": 3}, {"size": 2}], "time": [0.5, 2.0]}),
            (["simulate", "--dense"], {"dims": [{"size": 3}, {"size": 2}], "time": 0.5}),
            (["clt"], {"dims": [{"size": 4}], "d_sweep": [8, 16], "time": 3.1}),
            (["bench"], {"dims": [{"size": 1}], "d_sweep": [4, 8], "time": 1.7}),
            (["dump-spectrum"], {"dims": [{"size": 5}, {"size": 1}]}),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_no_subcommand_imports_numpy_random(self, tmp_path, argv, fields):
        # numpy.random's extension modules and the hashlib chain its seeding pulls
        # in cost a call about 5 MiB resident; a fresh interpreter shows whether main
        # imports it, since this process already has
        config, out = write_config(tmp_path, **fields), str(tmp_path / "out")
        script = (
            "import sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "from bdqw.cli import main\n"
            f"code = main({[*argv, '--config', config, '--output', out]!r})\n"
            "print(code, before, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        code, before, after = result.stdout.split()
        if before == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert (code, after) == ("0", "False"), result.stderr

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

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_main_leaves_the_sigpipe_handler_alone(self, tmp_path):
        # only the command-line entry point acts as a filter; a caller of main keeps its handler
        before = signal.getsignal(signal.SIGPIPE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", edge_config(tmp_path), "--output", str(out)]) == 0
        assert signal.getsignal(signal.SIGPIPE) == before

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_output_dev_stdout_on_a_pipe(self, tmp_path):
        # on a pipe, /dev/stdout resolves to /proc/<pid>/fd/pipe:[...], beside which
        # no temporary file can be made: it must be written directly, as stdout is
        config = write_config(tmp_path, dims=[{"size": 2}, {"size": 1}], time=[0.5, 3.0])
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        results = [
            subprocess.run(
                [sys.executable, "-m", "bdqw", "simulate", "--config", config, "--output", target],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
            for target in ("/dev/stdout", "-")
        ]
        assert [(r.returncode, r.stderr) for r in results] == [(0, b""), (0, b"")]
        assert results[0].stdout.startswith(b"time,dimension,position,probability\n")
        assert results[0].stdout == results[1].stdout

    @pytest.mark.parametrize("redirect", [">>", ">"])
    @pytest.mark.parametrize(
        "target, fd",
        [("/dev/stdout", 1), ("/dev/stderr", 2), ("/dev/fd/1", 1), ("/proc/self/fd/1", 1)],
    )
    def test_an_open_descriptor_is_written_at_its_offset(self, tmp_path, target, fd, redirect):
        # the shell's file behind the descriptor keeps what was written before the
        # report, whether appended to (>>) or written by a { ...; } > f group
        if not os.path.exists(target):
            pytest.skip(f"no {target}")
        config = write_config(tmp_path, dims=[{"size": 1}])
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        log = tmp_path / "log.txt"
        log.write_text("earlier\n", encoding="utf-8")
        run = f"{shlex.quote(sys.executable)} -m bdqw dump-config --config {shlex.quote(config)}"
        script = (
            f"{{ echo header >&{fd}; {run} --output {target}; echo footer >&{fd}; }}"
            f" {fd}{redirect} {shlex.quote(str(log))}"
        )
        result = subprocess.run(["/bin/sh", "-c", script], env=env, timeout=60)
        assert result.returncode == 0
        text = log.read_text(encoding="utf-8")
        expected_head = ("earlier\n" if redirect == ">>" else "") + "header\n"
        assert text.startswith(expected_head) and text.endswith("footer\n")
        report = json.loads(text[len(expected_head) : -len("footer\n")])
        assert parse_config(report) == load_config(config)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_a_reader_closing_the_pipe_ends_the_run_as_a_filter(self, tmp_path):
        # 1.8 MB of CSV, far more than a pipe buffers: the run is still writing when
        # the reader goes, and ends by SIGPIPE with nothing on stderr, not exit 2
        config = write_config(
            tmp_path, dims=[{"size": 1}] * 10000, time=[2345.5, 11000.25, 19876.0]
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        with subprocess.Popen(
            [sys.executable, "-m", "bdqw", "simulate", "--config", config],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline() == b"time,dimension,position,probability\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        assert (proc.returncode, stderr) == (-signal.SIGPIPE, b"")
