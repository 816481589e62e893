"""Tests for the command-line interface: parsing, output, exit codes."""

import dataclasses
import importlib.metadata
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from schatten_lab import laws
from schatten_lab.cli import SEED_ENV_VAR, CliError, load_matrix, main


def write_matrix(path, array, name=None):
    """Serialize an array into the CLI's matrix-file JSON format."""
    m = np.atleast_2d(np.asarray(array, dtype=complex))
    doc = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    if name is not None:
        doc["name"] = name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    def make(stem, array, name=None):
        return write_matrix(tmp_path / f"{stem}.json", array, name=name)

    return make


class TestLoadMatrix:
    def test_roundtrip_with_name(self, files):
        path = files("a", [[1.0, 2.0], [3.0, 4.0]], name="demo")
        name, m = load_matrix(path)
        assert name == "demo"
        assert m.shape == (2, 2)
        assert m.dtype == complex
        assert m[1, 0] == 3.0

    def test_name_defaults_to_filename(self, files):
        path = files("mat", np.eye(2))
        name, _ = load_matrix(path)
        assert name == "mat.json"

    def test_complex_entries(self, files):
        path = files("c", np.array([[1.0 + 2.0j]]))
        _, m = load_matrix(path)
        assert m[0, 0] == 1.0 + 2.0j


class TestCheckCommand:
    def test_bj_holds(self, files, capsys):
        a = files("a", np.diag([1.0, 0.0]))
        b = files("b", np.diag([0.0, 1.0]))
        code = main(["check", "bj", a, b, "--norm", "schatten", "--p", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check: bj" in out
        assert "norm: schatten p=1" in out
        assert "verdict: HOLDS" in out
        assert "extremal scalar:" in out
        assert "gap:" in out and "tolerance:" in out

    def test_bj_fails_on_dependent_pair(self, files, capsys):
        a = files("a", np.eye(2))
        b = files("b", 2.0 * np.eye(2))
        code = main(["check", "bj", a, b])
        assert code == 1
        assert "verdict: FAILS" in capsys.readouterr().out

    def test_bj_rejects_vector_norms(self, files, capsys):
        a = files("a", [[1.0, 0.0]])
        b = files("b", [[0.0, 1.0]])
        code = main(["check", "bj", a, b, "--norm", "max"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parallel_matrix_spectral(self, files, capsys):
        a = files("a", np.diag([1.0, 0.0]))
        b = files("b", np.eye(2))
        code = main(["check", "parallel", a, b, "--norm", "schatten", "--p", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: HOLDS" in out
        assert "achieved: 2.000000000000e+00" in out
        assert "target: 2.000000000000e+00" in out

    def test_parallel_vectors_max_norm(self, files, capsys):
        x = files("x", [[1.0, -1.0]])
        y = files("y", [[-1.0, -1.0]])
        code = main(["check", "parallel", x, y, "--norm", "max"])
        out = capsys.readouterr().out
        assert code == 0
        assert "norm: max" in out
        assert "verdict: HOLDS" in out

        x2 = files("x2", [[0.0, 1.0]])
        y2 = files("y2", [[-1.0, 0.0]])
        code = main(["check", "parallel", x2, y2, "--norm", "max"])
        out = capsys.readouterr().out
        assert code == 1
        assert "achieved: 1.000000000000e+00" in out

    def test_parallel_generic_induced_p(self, files, capsys):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        a, b, twice = files("a", g[0]), files("b", g[1]), files("twice", 2.0 * g[0])
        code = main(["check", "parallel", a, b, "--norm", "induced", "--p", "3"])
        assert code == 1
        assert "verdict: FAILS" in capsys.readouterr().out
        code = main(["check", "parallel", a, twice, "--norm", "induced", "--p", "3"])
        assert code == 0
        assert "verdict: HOLDS" in capsys.readouterr().out

    def test_parallel_vector_norm_needs_vector_file(self, files, capsys):
        a = files("a", np.eye(2))
        b = files("b", np.eye(2))
        code = main(["check", "parallel", a, b, "--norm", "lp", "--p", "1.5"])
        assert code == 2
        assert "vector norms need" in capsys.readouterr().err

    def test_supports(self, files, capsys):
        a = files("a", np.diag([1.0, 0.0]))
        b = files("b", np.diag([0.0, 1.0]))
        code = main(["check", "supports", a, b])
        out = capsys.readouterr().out
        assert code == 0
        assert "right disjoint: yes" in out
        assert "left disjoint: yes" in out

        c = files("c", np.eye(2))
        code = main(["check", "supports", a, c])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: FAILS" in out

    def test_isosceles_requires_schatten(self, files, capsys):
        a = files("a", np.diag([1.0, 0.0]))
        b = files("b", np.diag([0.0, 1.0]))
        assert main(["check", "isosceles", a, b, "--p", "1.5"]) == 0
        capsys.readouterr()
        code = main(["check", "isosceles", a, b, "--norm", "induced"])
        assert code == 2
        assert "schatten" in capsys.readouterr().err

    def test_sip_value_and_validation(self, files, capsys):
        a = files("a", np.diag([2.0, 0.0]))
        b = files("b", [[0.0, 1.0], [1.0, 0.0]])
        code = main(["check", "sip", a, b])
        out = capsys.readouterr().out
        # At p = 2 the form is tr(a* b) = 0 here: orthogonal.
        assert code == 0
        assert "semi-inner product [right, left]: +0.000000000000+0.000000000000j" in out
        assert "verdict: HOLDS" in out
        code = main(["check", "sip", a, b, "--p", "1"])
        assert code == 2
        assert "1 < p < inf" in capsys.readouterr().err

    def test_shape_mismatch_is_usage_error(self, files, capsys):
        a = files("a", np.eye(2))
        b = files("b", np.eye(3))
        code = main(["check", "bj", a, b])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_output(self, files, capsys):
        a = files("a", [[0.3, -1.2], [0.9, 0.4]])
        b = files("b", [[1.1, 0.2], [-0.7, 2.5]])
        argv = ["check", "parallel", a, b, "--norm", "schatten", "--p", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_tol_validation(self, files, capsys):
        a = files("a", np.eye(2))
        code = main(["check", "bj", a, a, "--tol", "-1"])
        assert code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "nan", "inf", "-inf"])
    def test_tol_must_be_positive_and_finite(self, files, capsys, tol):
        a = files("a", np.eye(2))
        code = main(["check", "bj", a, a, f"--tol={tol}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol must be positive and finite")

    def test_p_parsing(self, files, capsys):
        a = files("a", np.diag([1.0, 0.0]))
        b = files("b", np.eye(2))
        assert main(["check", "parallel", a, b, "--p", "oo"]) == 0
        capsys.readouterr()
        code = main(["check", "parallel", a, b, "--p", "two"])
        assert code == 2
        assert "invalid --p" in capsys.readouterr().err

    @pytest.mark.parametrize("norm, p", [("induced", "0.5"), ("schatten", "nan"),
                                         ("induced", "nan")])
    def test_p_out_of_range_is_usage_error(self, files, capsys, norm, p):
        a = files("a", np.eye(2))
        code = main(["check", "parallel", a, a, "--norm", norm, "--p", p])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMatrixFileErrors:
    def _expect(self, capsys, argv, fragment):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert fragment in err

    def test_missing_file(self, files, capsys):
        a = files("a", np.eye(2))
        self._expect(capsys, ["check", "bj", a, a + ".nope"], "cannot read")

    def test_invalid_json(self, tmp_path, files, capsys):
        a = files("a", np.eye(2))
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"rows\": 2,,\n}", encoding="utf-8")
        self._expect(
            capsys, ["check", "bj", a, str(bad)], "invalid JSON at line 2"
        )

    def test_not_an_object(self, tmp_path, files, capsys):
        a = files("a", np.eye(2))
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        self._expect(capsys, ["check", "bj", a, str(bad)], "JSON object")

    def test_missing_key(self, tmp_path, files, capsys):
        a = files("a", np.eye(2))
        bad = tmp_path / "nokey.json"
        bad.write_text('{"rows": 1, "cols": 1}', encoding="utf-8")
        self._expect(capsys, ["check", "bj", a, str(bad)], "missing required key")

    def test_wrong_entry_count(self, tmp_path, files, capsys):
        a = files("a", np.eye(2))
        bad = tmp_path / "short.json"
        bad.write_text(
            '{"rows": 2, "cols": 2, "entries": [[1, 0]]}', encoding="utf-8"
        )
        self._expect(capsys, ["check", "bj", a, str(bad)], "exactly rows*cols = 4")

    def test_malformed_entry(self, tmp_path, files, capsys):
        a = files("a", np.eye(1))
        bad = tmp_path / "pair.json"
        bad.write_text(
            '{"rows": 1, "cols": 1, "entries": [[1, 0, 0]]}', encoding="utf-8"
        )
        self._expect(capsys, ["check", "bj", a, str(bad)], "[re, im] pair")

    def test_bad_dimensions(self, tmp_path, files, capsys):
        a = files("a", np.eye(1))
        bad = tmp_path / "dims.json"
        bad.write_text(
            '{"rows": "1", "cols": 1, "entries": [[1, 0]]}', encoding="utf-8"
        )
        self._expect(capsys, ["check", "bj", a, str(bad)], "positive integers")

    @pytest.mark.parametrize("doc, fragment", [
        ('{"rows": true, "cols": 1, "entries": [[1, 0]]}', "positive integers"),
        ('{"rows": 1, "cols": false, "entries": [[1, 0]]}', "positive integers"),
        ('{"rows": 1, "cols": 2, "entries": [[true, 0], [0, 0]]}', "entry 0 must be"),
        ('{"rows": 1, "cols": 2, "entries": [[0, 0], [1, false]]}', "entry 1 must be"),
        ('{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 400), "out of floating-point"),
    ], ids=["bool-rows", "bool-cols", "bool-re", "bool-im", "huge-int"])
    def test_rejects_bools_and_out_of_range_numbers(self, tmp_path, files, capsys, doc,
                                                    fragment):
        a = files("a", np.eye(1))
        bad = tmp_path / "bad.json"
        bad.write_text(doc, encoding="utf-8")
        self._expect(capsys, ["check", "bj", a, str(bad)], fragment)
        with pytest.raises(CliError):
            load_matrix(str(bad))


class TestNearOverflow:
    """Operands near the largest float: never an uncaught error with exit 1."""

    @pytest.mark.parametrize("norm, p", [("schatten", "inf"), ("induced", "2")])
    def test_pencil_overflow_is_usage_error(self, files, capsys, norm, p):
        # a + gamma b overflows on the search grid.  numpy's overflow
        # warning still reaches the caller; it is expected here, so it stays
        # visible until the operands are scaled at predicate entry.
        a = files("a", np.diag([1.5e308, 1.5e308]))
        b = files("b", np.diag([1.5e308, -1.5e308]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["check", "bj", a, b, "--norm", norm, "--p", p])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("norm, p", [("schatten", "inf"), ("induced", "2")])
    def test_radius_near_overflow_gives_a_verdict(self, files, capsys, norm, p):
        # 4 ||a|| / ||b|| overflowed to inf here, so the grid was NaN.
        a = files("a", np.diag([1e308, 1e308]))
        b = files("b", np.diag([1e308, -1e308]))
        assert main(["check", "bj", a, b, "--norm", norm, "--p", p]) == 0
        assert "verdict: HOLDS" in capsys.readouterr().out


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code = main(["verify", "S1", "--trials", "3", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("S1: 3/3 trials passed [ok] - ")
        assert lines[-1] == "verify: all suites passed"

    def test_miscalibrated_ensemble_is_usage_error(self, capsys, monkeypatch):
        def runner(cfg, offset, rng):
            raise laws.EnsembleMiscalibration("no decisive draw")

        spec = dataclasses.replace(laws.SUITES["S1"], runner=runner)
        monkeypatch.setitem(laws.SUITES, "S1", spec)
        code = main(["verify", "S1", "--trials", "2", "--seed", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: S1: no decisive draw\n"

    def test_duplicates_are_collapsed(self, capsys):
        code = main(["verify", "S6", "S6", "--trials", "2", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("S6:") == 1

    def test_unknown_suite(self, capsys):
        code = main(["verify", "S99", "--trials", "1"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_all_runs_every_suite(self, capsys):
        code = main(["verify", "all", "--trials", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        for i in range(1, 16):
            assert f"S{i}: 1/1 trials passed [ok]" in out

    def test_json_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main([
            "verify", "S5", "--trials", "2", "--seed", "4",
            "--json", str(out_dir),
        ])
        capsys.readouterr()
        assert code == 0
        payload = (out_dir / "S5.json").read_text(encoding="utf-8")
        assert payload.endswith("\n")
        doc = json.loads(payload)
        assert doc["schema_version"] == 1
        assert doc["suite_id"] == "S5"
        assert doc["passes"] == 2
        assert doc["config"]["seed"] == 4
        # Canonical form: sorted keys, two-space indent.
        assert payload == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_unwritable_json_dir(self, capsys):
        code = main([
            "verify", "S1", "--trials", "1", "--json", "/dev/null/x",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot create report directory" in err

    def test_unwritable_report_is_usage_error(self, tmp_path, capsys):
        # A directory in the report's place: the suite runs, the write fails.
        (tmp_path / "S1.json").mkdir()
        code = main(["verify", "S1", "--trials", "1", "--json", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out.startswith("S1: 1/1 trials passed [ok]")
        assert err.startswith(f"error: cannot write {tmp_path / 'S1.json'}: ")

    def test_seed_env_var_used_and_validated(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        assert main(["verify", "S1", "--trials", "2"]) == 0
        capsys.readouterr()
        monkeypatch.setenv(SEED_ENV_VAR, "not-an-int")
        code = main(["verify", "S1", "--trials", "2"])
        assert code == 2
        assert SEED_ENV_VAR in capsys.readouterr().err
        # An explicit --seed bypasses the broken environment value.
        assert main(["verify", "S1", "--trials", "2", "--seed", "5"]) == 0
        capsys.readouterr()

    def test_negative_seed_is_usage_error_before_any_suite(self, capsys):
        code = main(["verify", "S1", "S7", "--trials", "1", "--seed", "-3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed must be an integer >= 0")

    def test_dim_validation_maps_to_usage_error(self, capsys):
        code = main(["verify", "S13", "--trials", "1", "--dim", "7"])
        assert code == 2
        assert "dimensions in [2, 6]" in capsys.readouterr().err


class TestFixturesCommand:
    def test_listing(self, capsys):
        code = main(["fixtures"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert not any(line.startswith("PASS") for line in lines)

    def test_run(self, capsys):
        code = main(["fixtures", "--run"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS  ")) == 7
        assert lines[-1] == "fixtures: 7/7 passed"
        assert captured.err == ""


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestConsoleScript:
    # The console script exists only once the distribution is installed;
    # running from a source tree (PYTHONPATH=src) provides no entry point.
    @pytest.mark.skipif(
        not _distribution_installed("schatten-lab"),
        reason="distribution schatten-lab is not installed "
        "(importlib.metadata raised PackageNotFoundError)",
    )
    def test_entry_point_installed(self):
        exe = shutil.which("schatten-lab")
        assert exe, "console script schatten-lab not on PATH"
        proc = subprocess.run(
            [exe, "fixtures", "--run"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "fixtures: 7/7 passed" in proc.stdout

    def test_script_target_resolves_from_source(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module_name, _, attr = scripts["schatten-lab"].partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is main
        assert target(["fixtures"]) == 0
        assert "identity-vs-traceless-diagonal" in capsys.readouterr().out
