"""Command-line behavior: exit codes, determinism, replay, config handling."""

import math

import pytest

from besselstruve import ClassParams, DixitPalParams, SignConvention, \
    NormalizedSeries, write_series
from besselstruve import highprec_sum_oracle
from besselstruve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exponential_fixture(self, capsys):
        code, out, _ = run(capsys, "eval", "--nu", "-0.5", "--z", "1")
        assert code == 0
        assert "2.718281828458" in out  # S(1) ~ e within the tail bound

    def test_half_order_fixture(self, capsys):
        code, out, _ = run(capsys, "eval", "--nu", "0.5", "--z", "1")
        assert code == 0
        assert "1.718281828458" in out
        s1_line = [l for l in out.splitlines() if l.startswith("S'(1)")][0]
        assert float(s1_line.split("=")[1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z, line", (
        # past the unit disk the value sums the radius-|z| table at tol/2,
        # not the radius-1 table (N = 14, tail bound 7.9e-14)
        ("4j", "truncation  : N = 26, tail bound = 1.1915267839340785e-13"),
        ("0.5", "truncation  : N = 14, tail bound = 7.9094577702028597e-14"),
    ))
    def test_truncation_line_names_the_table_summed(self, capsys, z, line):
        code, out, _ = run(capsys, "eval", "--nu", "0.3", "--z", z)
        assert code == 0
        assert out.splitlines()[-1] == line

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--nu", "-1.5", "--z", "0")
        assert code == 2
        assert "nu" in err

    def test_bad_point_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", "--nu", "1", "--z", "zebra")
        assert code == 2


class TestCheck:
    def test_starlike_fails_at_half(self, capsys):
        code, out, _ = run(capsys, "check", "starlike", "--nu", "0.5",
                           "--alpha", "0")
        assert code == 1
        assert f"lhs       = {math.e:.17g}"[:24] in out
        assert "holds     : false" in out

    def test_t_holds_at_large_order(self, capsys):
        code, out, _ = run(capsys, "check", "t", "--nu", "25",
                           "--lambda", "0.5", "--alpha", "0.5")
        assert code == 0
        assert "holds     : true" in out

    def test_stated_form_matches_proof_at_lambda_zero(self, capsys):
        _, out_a, _ = run(capsys, "check", "t", "--nu", "3", "--alpha", "0.2",
                          "--lambda", "0", "--form", "proof")
        _, out_b, _ = run(capsys, "check", "t", "--nu", "3", "--alpha", "0.2",
                          "--lambda", "0", "--form", "stated")
        pick = lambda text, key: [l for l in text.splitlines()
                                  if l.startswith(key)]
        for key in ("lhs", "rhs", "margin"):
            assert pick(out_a, key) == pick(out_b, key)

    def test_parameter_errors(self, capsys):
        assert run(capsys, "check", "t", "--nu", "1", "--alpha", "1.5")[0] == 2
        assert run(capsys, "check", "jnu", "--nu", "1")[0] == 2
        assert run(capsys, "check", "jnu", "--nu", "1", "--A", "0.5",
                   "--B", "0.5", "--tau-abs", "1")[0] == 2
        assert run(capsys, "check", "t")[0] == 2  # no --nu, no series

    def test_jnu_roundtrip(self, capsys):
        code, out, _ = run(capsys, "check", "jnu", "--nu", "6", "--A", "0.5",
                           "--B", "-0.5", "--tau-abs", "0.8")
        assert code in (0, 1)
        assert "margin" in out


class TestSeriesFileCheck:
    def test_holds_fails_inconclusive(self, tmp_path, capsys):
        # single-term series: sum_T = (2 - alpha) b vs 1 - alpha
        path = tmp_path / "f.txt"
        write_series(path, NormalizedSeries((0.2,), SignConvention.NEGATIVE))
        code, out, _ = run(capsys, "check", "t", "--series-file", str(path))
        assert code == 0 and "outcome   : holds" in out

        write_series(path, NormalizedSeries((0.8,), SignConvention.NEGATIVE))
        code, out, _ = run(capsys, "check", "t", "--series-file", str(path))
        assert code == 1 and "outcome   : fails" in out

        write_series(path, NormalizedSeries((0.4,), tail_bound=0.3,
                                            tail_ratio=0.5))
        code, out, _ = run(capsys, "check", "t", "--series-file", str(path))
        assert code == 3 and "outcome   : inconclusive" in out

    def test_convex_type_uses_l_weights(self, tmp_path, capsys):
        # same coefficient: holds under T weights, fails under L weights
        path = tmp_path / "f.txt"
        write_series(path, NormalizedSeries((0.4,), SignConvention.NEGATIVE))
        assert run(capsys, "check", "t", "--series-file", str(path))[0] == 0
        assert run(capsys, "check", "l", "--series-file", str(path))[0] == 1

    def test_rejects_operator_conditions(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        write_series(path, NormalizedSeries((0.1,)))
        assert run(capsys, "check", "qnu", "--series-file", str(path))[0] == 2


class TestScan:
    def test_grid_cardinality(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "scan", "t", "--nu", "1:10:10",
                         "--alpha", "0:0.9:10", "--lambda", "0.5",
                         "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 101
        assert lines[0] == "condition,form,nu,lambda,alpha,lhs,rhs,margin,holds"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("scan", "starlike", "--nu", "0.5:20:25", "--alpha", "0:0.5:3")
        assert run(capsys, *args, "--output", str(a))[0] == 0
        assert run(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_holds_flips_exactly_once(self, tmp_path, capsys):
        out_path = tmp_path / "flip.csv"
        run(capsys, "scan", "starlike", "--nu", "0.5:20:40", "--alpha", "0",
            "--output", str(out_path))
        holds = [line.rsplit(",", 1)[1]
                 for line in out_path.read_text().splitlines()[1:]]
        flips = sum(1 for a, b in zip(holds, holds[1:]) if a != b)
        assert flips == 1
        assert holds[0] == "false" and holds[-1] == "true"

    def test_rows_replay_through_check(self, tmp_path, capsys):
        out_path = tmp_path / "replay.csv"
        run(capsys, "scan", "t", "--nu", "1:6:4", "--alpha", "0:0.8:3",
            "--lambda", "0:0.9:3", "--output", str(out_path))
        rows = [line.split(",")
                for line in out_path.read_text().splitlines()[1:]]
        for cond, form, nu, lam, alpha, lhs, rhs, margin, holds in rows[::5]:
            code, out, _ = run(capsys, "check", cond, "--nu", nu,
                               "--lambda", lam, "--alpha", alpha,
                               "--form", form)
            assert (code == 0) == (holds == "true")
            assert f"lhs       = {lhs}\n" in out
            assert f"rhs       = {rhs}\n" in out
            assert f"margin    = {margin}\n" in out

    def test_starlike_rejects_nonzero_lambda(self, tmp_path, capsys):
        code, _, err = run(capsys, "scan", "starlike", "--nu", "1:2:2",
                           "--lambda", "0.5",
                           "--output", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        # a missing parent directory, and a directory in the file's place
        (tmp_path / "taken").mkdir()
        for target in (tmp_path / "missing" / "x.csv", tmp_path / "taken"):
            code, out, err = run(capsys, "scan", "t", "--nu", "1:2:2",
                                 "--output", str(target))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    def test_no_partial_file_on_error(self, tmp_path, capsys):
        out_path = tmp_path / "partial.csv"
        code, _, _ = run(capsys, "scan", "t", "--nu", "bad-range",
                         "--output", str(out_path))
        assert code == 2
        assert not out_path.exists()

    def test_error_mid_grid_leaves_the_output_untouched(self, tmp_path, capsys):
        # rows stream into the temporary file; nu = -0.5, the grid's second
        # point, is refused after the first nu's rows were written
        out_path = tmp_path / "kept.csv"
        out_path.write_text("earlier run\n")
        code, out, err = run(capsys, "scan", "t", "--nu=0:-1:5",
                             "--output", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out_path.read_text() == "earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]

    def test_rows_are_written_in_chunks(self, tmp_path, capsys, monkeypatch):
        import contextlib

        from besselstruve import cli

        rows_per_write = []
        real = cli.write_then_rename

        @contextlib.contextmanager
        def counted(path):
            with real(path) as fh:
                class Counting:
                    def write(self, text):
                        rows_per_write.append(text.count("\n"))
                        return fh.write(text)
                yield Counting()

        monkeypatch.setattr(cli, "write_then_rename", counted)
        # a 20 x 20 slab, as the benchmark's region scan writes: one write
        # per nu after the header
        assert run(capsys, "scan", "t", "--nu", "1:2:2", "--lambda",
                   "0:0.9:20", "--alpha", "0:0.9:20", "--output",
                   str(tmp_path / "small.csv"))[0] == 0
        assert rows_per_write == [1, 400, 400]
        # a 5000-cell slab is cut at _ROWS_PER_WRITE rows, into the bytes
        # one write would give
        rows_per_write.clear()
        args = ("scan", "l", "--nu", "3", "--lambda", "0:0.9:100",
                "--alpha", "0:0.9:50", "--output")
        assert run(capsys, *args, str(tmp_path / "cut.csv"))[0] == 0
        assert rows_per_write == [1, 4096, 904]
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 10 ** 6)
        assert run(capsys, *args, str(tmp_path / "whole.csv"))[0] == 0
        assert rows_per_write[3:] == [1, 5000]
        assert ((tmp_path / "cut.csv").read_bytes()
                == (tmp_path / "whole.csv").read_bytes())


class TestCritical:
    def test_golden_fixture(self, capsys):
        code, out, _ = run(capsys, "critical", "starlike", "--alpha", "0",
                           "--bracket", "0.6:20")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("nu*")][0]
        nu_star = float(line.split("=")[1])
        assert abs(nu_star - 2.0381807051618718) <= 1e-8

    def test_bad_bracket_names_margins(self, capsys):
        code, _, err = run(capsys, "critical", "starlike", "--alpha", "0",
                           "--bracket", "5:20")
        assert code == 2
        assert "margin(5.0)" in err and "margin(20.0)" in err

    def test_alpha_ordering(self, capsys):
        def nu_star(alpha):
            _, out, _ = run(capsys, "critical", "starlike", "--alpha", alpha,
                            "--bracket", "0.6:30")
            return float([l for l in out.splitlines()
                          if l.startswith("nu*")][0].split("=")[1])
        assert nu_star("0.5") > nu_star("0")

    @pytest.mark.parametrize("condition, form, label", [
        ("l", "stated", "proof"),
        ("qnu", "stated", "proof"),
        ("t", "stated", "stated"),
        ("t", "proof", "proof"),
    ])
    def test_prints_the_form_it_solved(self, capsys, condition, form, label):
        # the label `check` prints for the same request: only t has a
        # stated form, and every other condition is solved by its proof rule
        args = ("--form", form, "--lambda", "0.5", "--alpha", "0.3")
        code, out, _ = run(capsys, "critical", condition, *args)
        assert code == 0
        assert out.splitlines()[0] == f"condition : {condition} (form {label})"
        _, checked, _ = run(capsys, "check", condition, "--nu", "20", *args)
        assert checked.splitlines()[0] == out.splitlines()[0]


class TestVerify:
    def test_moments_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "moments")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_suite_selection_dispatches(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "ode")
        assert code == 0
        check_lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert check_lines
        assert all("ode residual" in l for l in check_lines)

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestConfig:
    def test_config_supplies_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# defaults\ntol = 1e-10\n")
        _, out, _ = run(capsys, "eval", "--nu", "1", "--z", "0.5",
                        "--config", str(cfg))
        assert "tol = 1e-10" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tol = 1e-10\n")
        _, out, _ = run(capsys, "eval", "--nu", "1", "--z", "0.5",
                        "--config", str(cfg), "--tol", "1e-8")
        assert "tol = 1e-08" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # radius and points were once accepted although nothing read them
        cfg = tmp_path / "cfg.txt"
        for text in ("volume = 11\n", "radius = 0.5\n", "points = 64\n"):
            cfg.write_text(text)
            code, _, err = run(capsys, "eval", "--nu", "1", "--z", "0",
                               "--config", str(cfg))
            assert code == 2 and "unknown config key" in err

    def test_missing_config_rejected(self, capsys):
        code, _, _ = run(capsys, "eval", "--nu", "1", "--z", "0",
                         "--config", "/nonexistent/cfg")
        assert code == 2


class TestParser:
    def test_help_available_for_each_subcommand(self, capsys):
        for sub in ("eval", "check", "scan", "critical", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_parser_built_once_on_first_call(self, capsys):
        from besselstruve import cli
        cli._parser.cache_clear()
        assert cli._parser.cache_info().currsize == 0
        for _ in range(3):
            assert main(["check", "t", "--nu", "3"]) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        capsys.readouterr()


# series files with a bad value, written for `TestErrorPaths`
_BAD_FILES = {"nan_coeff": "2 0.5\n3 nan\n", "inf_coeff": "2 inf\n",
              "nan_tail": "# tail_bound: nan\n2 0.1\n",
              "huge_index": "2 0.5\n1000000000000 1.0\n",
              "float_cfg": "# defaults\ntol = abc\n", "int_cfg": "seed = 1.5\n"}


class TestErrorPaths:
    """One row per error path: exit code 2, nothing on stdout and exactly one
    stderr line with the given start."""

    @pytest.mark.parametrize("argv, first_words", [
        (("check", "starlike", "--nu", "3", "--lambda", "0.5", "--alpha", "0.2"),
         "error: condition 'starlike' fixes lambda = 0"),
        (("check", "convex", "--nu", "3", "--lambda", "0.5"),
         "error: condition 'convex' fixes lambda = 0"),
        (("critical", "starlike", "--lambda", "0.5"),
         "error: condition 'starlike' fixes lambda = 0"),
        (("critical", "convex", "--lambda", "0.3"),
         "error: condition 'convex' fixes lambda = 0"),
        (("check", "t", "--series-file", "{missing}"),
         "error: cannot read series file {missing}: "),
        (("critical", "starlike", "--margin-tol", "-1"),
         "error: margin_tol must be finite and >= 0, got -1.0"),
        (("critical", "starlike", "--margin-tol", "inf"),
         "error: margin_tol must be finite and >= 0, got inf"),
        (("critical", "starlike", "--nu-tol", "nan"),
         "error: nu_tol must be finite and >= 0, got nan"),
        (("critical", "starlike", "--alpha", "0.1", "--margin-tol", "0"),
         "error: margin tolerance 0.0 not reached: final bracket [2.30230987"),
        (("eval", "--nu", "1", "--z", "nan"),
         "error: z must be finite, got (nan+0j)"),
        (("eval", "--nu", "1", "--z", "inf"),
         "error: z must be finite, got (inf+0j)"),
        (("eval", "--nu", "1", "--z", "0.5", "--tol", "1e-17"),
         "error: moments at nu=1.0 cannot reach tol=1e-17: the largest "
         "value 9.45172 is resolved only to its ulp 1.776e-15"),
        (("eval", "--nu=-0.999999", "--z", "0.5"),
         "error: moments at nu=-0.999999 cannot reach tol=1e-12: the "
         "largest value "),
        (("check", "t", "--series-file", "{nan_coeff}"),
         "error: {nan_coeff}:2: coefficient must be finite, got 'nan'"),
        (("check", "l", "--series-file", "{inf_coeff}"),
         "error: {inf_coeff}:1: coefficient must be finite, got 'inf'"),
        (("check", "t", "--series-file", "{nan_tail}"),
         "error: {nan_tail}:1: tail_bound must not be NaN"),
        (("eval", "--nu", "1", "--z", "1e300"),
         "error: S_nu at |z|=1e+300 (nu=1.0) overflows a double"),
        (("eval", "--nu", "1", "--z", "0.5", "--config", "{float_cfg}"),
         "error: {float_cfg}:2: bad tol value: could not convert string to "
         "float: 'abc'"),
        (("eval", "--nu", "1", "--z", "0.5", "--config", "{int_cfg}"),
         "error: {int_cfg}:1: bad seed value: invalid literal for int()"),
        (("scan", "t", "--nu", "1", "--lambda", "0:1.5:3", "--alpha", "0:1.2:2",
          "--output", "{out}"),
         "error: alpha must lie in [0, 1), got 1.2"),
        (("scan", "t", "--nu", "1", "--lambda", "0:1.5:3", "--output", "{out}"),
         "error: lambda must lie in [0, 1), got 1.5"),
        (("scan", "l", "--nu", "1", "--lambda", "nan", "--output", "{out}"),
         "error: lambda must lie in [0, 1), got nan"),
        (("scan", "qnu", "--nu=-0.7:2:3", "--output", "{out}"),
         "error: criteria and operators require nu > -1/2"),
        (("scan", "jnu", "--nu", "1", "--output", "{out}"),
         "error: condition 'jnu' needs --A, --B and --tau-abs"),
        # a Dixit-Pal triple on another condition is refused, not ignored
        (("check", "t", "--nu", "3", "--A", "0.5", "--B=-0.5", "--tau-abs", "1"),
         "error: condition 't' takes no DixitPalParams"),
        (("scan", "t", "--nu", "1", "--A", "0.5", "--B=-0.5", "--tau-abs", "1",
          "--output", "{out}"),
         "error: condition 't' takes no DixitPalParams"),
        (("critical", "t", "--A", "0.5", "--B=-0.5", "--tau-abs", "1"),
         "error: condition 't' takes no DixitPalParams"),
        (("check", "l", "--series-file", "{missing}", "--A", "0.5", "--B=-0.5",
          "--tau-abs", "1"),
         "error: condition 'l' takes no DixitPalParams"),
        # past the unit disk a value whose rounding bound exceeds tol/2 is
        # refused, not printed wrong
        (("eval", "--nu", "0.3", "--z", "50j"), "error: S_nu at |z|="),
        (("eval", "--nu", "0.3", "--z", "-40"), "error: S_nu at |z|="),
        (("eval", "--nu", "0.3", "--z", "30j"), "error: S_nu at |z|="),
        # refused before the index gap is filled with zeros
        (("check", "t", "--series-file", "{huge_index}"),
         "error: {huge_index}:2: index 1000000000000 exceeds the largest "
         "series index 100000"),
        # refused before a grid list or the lambda x alpha cells are built
        (("scan", "t", "--nu", "0.6:30:1000001", "--output", "{out}"),
         "error: bad range '0.6:30:1000001': steps must lie in [1, 1000000]"),
        (("scan", "t", "--nu", "1", "--lambda", "0:0.5:1001", "--alpha",
          "0:0.5:1000", "--output", "{out}"),
         "error: 1001 x 1000 lambda x alpha cells exceed 1000000"),
    ])
    def test_exit_code_and_one_line(self, tmp_path, capsys, argv, first_words):
        paths = {"missing": str(tmp_path / "missing.txt"),
                 "out": str(tmp_path / "out.csv")}
        for name, text in _BAD_FILES.items():
            paths[name] = str(tmp_path / f"{name}.txt")
            (tmp_path / f"{name}.txt").write_text(text)
        argv = [a.format(**paths) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(first_words.format(**paths))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.glob("out.csv*")) == []


class TestLargeOrders:
    """Coefficients at nu far past the lgamma range: the verdicts and lhs
    agree with the 50-digit oracle."""

    @staticmethod
    def _value(out, key):
        line = [l for l in out.splitlines() if l.startswith(key)][0]
        return float(line.split("=")[1])

    def test_t_holds_at_1e16(self, capsys):
        # the lgamma table printed margin -8 and exit 1 here
        code, out, _ = run(capsys, "check", "t", "--nu", "1e16",
                           "--lambda", "0.5", "--alpha", "0")
        assert code == 0
        assert self._value(out, "margin") == pytest.approx(1.0, abs=1e-7)
        ref = highprec_sum_oracle("t_proof", 1e16, lam=0.5, alpha=0.0)
        assert self._value(out, "lhs") == pytest.approx(float(ref), abs=1e-12)

    def test_qnu_lhs_at_1e20(self, capsys):
        # the lgamma table reported lhs 6455.9 here
        code, out, _ = run(capsys, "check", "qnu", "--nu", "1e20",
                           "--lambda", "0.5", "--alpha", "0.3")
        assert code == 0
        ref = highprec_sum_oracle("qnu", 1e20, lam=0.5, alpha=0.3)
        assert self._value(out, "lhs") == pytest.approx(float(ref), abs=1e-12)


class TestOneResolver:
    """Every command resolves its condition through `criteria._resolve`, and
    a missing triple is named by its flags."""

    @pytest.mark.parametrize("argv", [
        ("check", "jnu", "--nu", "3"),
        ("critical", "jnu"),
        ("scan", "jnu", "--nu", "1", "--output", "{out}"),
    ])
    def test_missing_triple_names_the_flags(self, tmp_path, capsys, argv):
        argv = [a.format(out=tmp_path / "out.csv") for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: condition 'jnu' needs --A, --B and --tau-abs\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_is_read_once_per_call(self, tmp_path, capsys, monkeypatch):
        from besselstruve import cli

        cfg = tmp_path / "c.cfg"
        cfg.write_text("tol = 1e-13\n")
        paths = []
        load = cli._load_config
        monkeypatch.setattr(cli, "_load_config",
                            lambda path: paths.append(path) or load(path))
        code, out, _ = run(capsys, "critical", "t", "--lambda", "0.5",
                           "--alpha", "0.3", "--config", str(cfg))
        assert code == 0 and "nu*" in out
        assert paths == [str(cfg)]
