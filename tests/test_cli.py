"""Command line behavior: exit codes, output formats, and round trips."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cemfit.censoring import CensoredSample, from_type2, read_censored_csv, write_censored_csv
from cemfit.cli import main
from cemfit.datasets import dataset_path
from cemfit.fitting import read_trace_csv

import reference_values as rv
from test_fitting import NO_LOGLIK_STARTS

NORMAL_CSV = str(dataset_path("normal_type2"))
LAPLACE_CSV = str(dataset_path("laplace_type2"))
RAYLEIGH_CSV = str(dataset_path("rayleigh_type2"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_em_fit_reaches_the_tabulated_mle(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "normal", "--data", NORMAL_CSV,
                           "--start", "1.7,0.004")
        assert code == 0
        assert "final: mu=1.7422  sigma=0.0791" in out
        assert "converged: yes" in out

    def test_data_with_a_byte_order_mark_fits_like_without(self, capsys, tmp_path):
        # spreadsheet exports start a UTF-8 file with U+FEFF, which once spoiled the header
        marked = tmp_path / "marked.csv"
        marked.write_text(Path(LAPLACE_CSV).read_text(), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        fit = ("fit", "--family", "laplace", "--algorithm", "direct", "--data")
        _, plain, _ = run(capsys, *fit, LAPLACE_CSV)
        code, out, err = run(capsys, *fit, str(marked))
        assert (code, err) == (0, "")
        # every line but the first, which names the file, and the last, the wall time
        assert out.splitlines()[1:-1] == plain.splitlines()[1:-1]

    def test_trace_into_a_missing_directory_fails_before_fitting(self, capsys, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        code, out, err = run(capsys, "fit", "--family", "laplace", "--algorithm", "mcem",
                             "--data", LAPLACE_CSV, "--trace", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("cemfit: error: --trace")
        assert not path.parent.exists()

    def test_trace_naming_a_directory_fails_before_fitting(self, capsys, tmp_path):
        code, out, err = run(capsys, "fit", "--family", "laplace", "--algorithm", "mcem",
                             "--k", "10", "--max-iter", "2", "--data", LAPLACE_CSV,
                             "--trace", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("cemfit: error: --trace")
        assert list(tmp_path.iterdir()) == []

    def test_trace_file_round_trips_exactly(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "fit", "--family", "normal", "--data", NORMAL_CSV,
                         "--start", "1.7,0.004", "--trace", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "mu", "sigma", "loglik"]
        assert float(rows[1][1]) == 1.7
        assert float(rows[1][2]) == math.sqrt(0.004)
        assert [int(float(r[0])) for r in rows[1:]] == list(range(len(rows) - 1))

    def test_direct_algorithm_reports_gradient(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "rayleigh",
                           "--algorithm", "direct", "--data", RAYLEIGH_CSV)
        assert code == 0
        assert "final: beta=6.1341" in out
        assert "gradient norm" in out

    @pytest.mark.parametrize("family", ["normal", "laplace", "rayleigh"])
    def test_direct_iterations_label_names_no_route(self, capsys, family):
        # normal fits by Newton, Laplace by a profile bisection, Rayleigh in closed form
        code, out, _ = run(capsys, "fit", "--family", family, "--algorithm", "direct",
                           "--data", str(dataset_path(f"{family}_type2")))
        assert code == 0
        summary = [line for line in out.splitlines() if "converged:" in line]
        assert len(summary) == 1
        assert summary[0].startswith("iterations: ")
        if family == "rayleigh":
            assert int(summary[0].split()[1]) == 0
        else:
            assert int(summary[0].split()[1]) >= 1
        assert "simplex" not in out

    @pytest.mark.parametrize("family", ["normal", "laplace", "rayleigh"])
    def test_direct_trace_is_one_row_holding_the_step_count(self, capsys, tmp_path, family):
        path = tmp_path / "direct.csv"
        code, out, _ = run(capsys, "fit", "--family", family, "--algorithm", "direct",
                           "--data", str(dataset_path(f"{family}_type2")),
                           "--trace", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("s,")
        summary = next(line for line in out.splitlines() if line.startswith("iterations: "))
        assert lines[1].split(",")[0] == summary.split()[1]

    def test_mcem_fit_recovers_the_rayleigh_scale(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "rayleigh", "--data", RAYLEIGH_CSV,
                           "--start", "1", "--k", "2000", "--seed", "42")
        assert code == 0
        final = float(out.split("final: beta=")[1].split()[0])
        assert final == pytest.approx(rv.RAYLEIGH_MLE, abs=0.1)

    def test_budget_exhaustion_exits_two(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "normal", "--data", NORMAL_CSV,
                           "--start", "1.7,0.004", "--max-iter", "2", "--tol", "1e-12")
        assert code == 2
        assert "converged: no" in out

    def test_deep_tail_bound_em_matches_direct(self, capsys, tmp_path):
        # one unit censored 40 sd above the moment start: EM must not refuse it
        data = tmp_path / "deep.csv"
        data.write_text("w,delta\n" + "".join(f"{j / 50!r},1\n" for j in range(1, 50))
                        + "12.0,0\n")
        finals = []
        for algorithm in ("em", "direct"):
            trace = tmp_path / f"{algorithm}.csv"
            code, _, _ = run(capsys, "fit", "--family", "normal", "--algorithm", algorithm,
                             "--data", str(data), "--trace", str(trace))
            assert code == 0
            finals.append(read_trace_csv(trace)[-1][1:3])
        assert finals[0] == pytest.approx(finals[1], abs=1e-6)

    def test_em_on_laplace_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "fit", "--family", "laplace",
                           "--algorithm", "em", "--data", LAPLACE_CSV)
        assert code == 1
        assert "only available for the normal family" in err

    def test_data_with_float_flags_fits_like_integer_flags(self, capsys, tmp_path):
        # a float delta column, as pandas to_csv writes it, reads as 0 and 1
        floats = tmp_path / "floats.csv"
        floats.write_text(Path(NORMAL_CSV).read_text().replace(",1\n", ",1.0\n")
                          .replace(",0\n", ",0.0\n"))
        assert ",1.0\n" in floats.read_text() and ",0.0\n" in floats.read_text()
        fit = ("fit", "--family", "normal", "--data")
        _, plain, _ = run(capsys, *fit, NORMAL_CSV)
        code, out, err = run(capsys, *fit, str(floats))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:-1] == plain.splitlines()[1:-1]

    def test_empty_data_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("w,delta\n")
        code, _, err = run(capsys, "fit", "--family", "normal", "--data", str(path))
        assert code == 1
        assert "empty sample" in err

    def test_malformed_row_reports_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w,delta\n1.5,1\noops,0\n")
        code, _, err = run(capsys, "fit", "--family", "normal", "--data", str(path))
        assert code == 1
        assert "line 3" in err

    def test_missing_file_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--family", "normal",
                           "--data", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error" in err

    def test_unparseable_start_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "fit", "--family", "normal", "--data", NORMAL_CSV,
                           "--start", "a,b")
        assert code == 1
        assert "cannot parse" in err

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--family", "normal"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unknown_family_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--family", "cauchy", "--data", NORMAL_CSV])
        assert exc.value.code == 1
        capsys.readouterr()


class TestModuleEntryPoint:
    """``python -m cemfit`` runs ``main`` and exits with its code."""

    @pytest.mark.parametrize("args, code", [
        (["--family", "normal", "--algorithm", "direct", "--data", NORMAL_CSV], 0),
        (["--family", "normal", "--algorithm", "em", "--max-iter", "2", "--data", NORMAL_CSV], 2),
        (["--family", "normal", "--data", "no-such-file.csv"], 1),
    ], ids=["direct", "em-budget", "missing-file"])
    def test_exit_codes(self, args, code, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "cemfit", "fit", *args], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 1:
            assert "cemfit: error:" in proc.stderr
        else:
            assert f"converged: {'yes' if code == 0 else 'no'}" in proc.stdout

    @pytest.mark.parametrize("family, route, start, k, max_iter",
                             NO_LOGLIK_STARTS + [("normal", "mcem", None, None, None)])
    def test_a_refusal_is_one_error_line(self, family, route, start, k, max_iter, tmp_path):
        # the starts with no finite log-likelihood, and MCEM on a sample whose
        # one bound is 40.7 sd above the moment start
        args = ["--family", family, "--algorithm", route]
        if start is None:
            data = tmp_path / "deep.csv"
            data.write_text("w,delta\n" + "".join(f"{j / 50!r},1\n" for j in range(1, 50))
                            + "12.0,0\n")
        else:
            data = dataset_path(f"{family}_type2")
            args.append("--start=" + ",".join(map(repr, start)))
        args += ["--data", str(data)]
        if k is not None:
            args += ["--k", str(k), "--max-iter", str(max_iter)]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "cemfit", "fit", *args], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("cemfit: error:"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("has no finite log-likelihood" if start else
                "tail mass 0.000e+00 (standardized bound 40.7)") in proc.stderr


    @pytest.mark.parametrize("command, flag", [
        (["fit", "--family", "normal"], "--data"),
        (["convert-type2", "--total-n", "3"], "--values"),
    ], ids=["fit", "convert-type2"])
    def test_a_file_that_is_not_utf8_is_an_input_error(self, command, flag, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"w,delta\n1.5,1\n2.5\xe9,0\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "cemfit", *command, flag, str(path)],
                              env=env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("cemfit: error:"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 3: byte 0xe9 at offset 17 is not UTF-8" in proc.stderr

class TestLazySpecialImport:
    def test_only_a_normal_fit_imports_scipy(self, tmp_path):
        # a fresh interpreter: this test session has long imported scipy.special
        values = tmp_path / "values.txt"
        values.write_text("1.5\n2.25\n3.0\n")
        code = (
            "import contextlib, io, sys, cemfit, cemfit.cli\n"
            "from cemfit.datasets import dataset_path\n"
            "out = sys.argv[2]\n"
            "def loaded(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cemfit.cli.main(list(argv)) in (0, 2), argv\n"
            "    return 'scipy' in sys.modules\n"
            "def fit(family, algorithm):\n"
            "    return loaded('fit', '--family', family, '--algorithm', algorithm,\n"
            "                  '--data', str(dataset_path(family + '_type2')),\n"
            "                  '--k', '10', '--max-iter', '2')\n"
            "seen = ['scipy' in sys.modules]\n"
            "seen += [fit(f, a) for f in ('laplace', 'rayleigh') for a in ('direct', 'mcem')]\n"
            "seen.append(loaded('convert-type2', '--values', sys.argv[1], '--total-n', '5',\n"
            "                   '--output', out + '/type2.csv'))\n"
            "seen.append(loaded('simulate', '--family', 'laplace', '--params', '0,1',\n"
            "                   '--n', '50', '--censor-time', '1.5', '--output', out + '/sim.csv'))\n"
            "fit('normal', 'em')\n"
            "print(*seen, 'scipy.special' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code, str(values), str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"] * 7 + ["True"]


class TestConvertType2:
    def test_reference_order_statistics(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("".join(f"{v}\n" for v in rv.NORMAL_OBSERVED))
        code, out, _ = run(capsys, "convert-type2", "--values", str(values),
                           "--total-n", str(rv.NORMAL_TOTAL_N))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["w", "delta"]
        assert len(rows) == 1 + rv.NORMAL_TOTAL_N
        flags = [int(r[1]) for r in rows[1:]]
        assert sum(flags) == len(rv.NORMAL_OBSERVED)
        censored = [float(r[0]) for r in rows[1:] if int(r[1]) == 0]
        assert censored == [max(rv.NORMAL_OBSERVED)] * 3

    def test_output_file_round_trips(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("".join(f"{v}\n" for v in rv.LAPLACE_OBSERVED))
        out_csv = tmp_path / "sample.csv"
        code, _, _ = run(capsys, "convert-type2", "--values", str(values),
                         "--total-n", str(rv.LAPLACE_TOTAL_N), "--output", str(out_csv))
        assert code == 0
        got = read_censored_csv(out_csv)
        want = from_type2(rv.LAPLACE_OBSERVED, rv.LAPLACE_TOTAL_N)
        np.testing.assert_array_equal(got.w, want.w)
        np.testing.assert_array_equal(got.delta, want.delta)

    def test_stdout_and_file_carry_the_sample_csv(self, capsys, tmp_path):
        sample = CensoredSample([0.5, 1.25, 1.25], [1, 1, 0])
        text = "w,delta\n0.5,1\n1.25,1\n1.25,0\n"
        assert sample.to_csv() == text
        written = tmp_path / "written.csv"
        write_censored_csv(written, sample)
        assert written.read_bytes() == text.encode()
        values = tmp_path / "values.txt"
        values.write_text("0.5\n1.25\n")
        code, out, _ = run(capsys, "convert-type2", "--values", str(values), "--total-n", "3")
        assert code == 0
        assert out == text

    def test_values_with_a_byte_order_mark(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("0.5\n1.25\n", encoding="utf-8-sig")
        code, out, err = run(capsys, "convert-type2", "--values", str(values), "--total-n", "3")
        assert (code, err) == (0, "")
        assert out == "w,delta\n0.5,1\n1.25,1\n1.25,0\n"

    def test_blank_lines_are_skipped_but_counted(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("0.5\n\n  \n1.25\n\n")
        code, out, err = run(capsys, "convert-type2", "--values", str(values), "--total-n", "3")
        assert (code, err) == (0, "")
        assert out == "w,delta\n0.5,1\n1.25,1\n1.25,0\n"
        values.write_text("0.5\n\nbogus\n")
        code, _, err = run(capsys, "convert-type2", "--values", str(values), "--total-n", "3")
        assert code == 1
        assert "line 3: cannot parse value 'bogus'" in err

    def test_bad_byte_under_bare_cr_line_ends_names_its_line(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_bytes(b"1.5\r2.0\r\xe9\r")
        code, _, err = run(capsys, "convert-type2", "--values", str(values), "--total-n", "5")
        assert code == 1
        assert err.endswith("values.txt, line 3: byte 0xe9 at offset 8 is not UTF-8\n")

    def test_more_values_than_units_is_an_error(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("1.0\n2.0\n3.0\n")
        code, _, err = run(capsys, "convert-type2", "--values", str(values),
                           "--total-n", "2")
        assert code == 1
        assert "error" in err

    def test_unparseable_value_names_the_line(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("1.0\nbogus\n")
        code, _, err = run(capsys, "convert-type2", "--values", str(values),
                           "--total-n", "5")
        assert code == 1
        assert "line 2" in err

    def test_nan_value_is_an_error(self, capsys, tmp_path):
        values = tmp_path / "values.txt"
        values.write_text("1.0\nnan\n0.5\n")
        code, out, err = run(capsys, "convert-type2", "--values", str(values),
                             "--total-n", "4")
        assert code == 1
        assert "finite" in err
        assert out == ""


class TestSimulate:
    def test_type2_structure(self, capsys):
        code, out, _ = run(capsys, "simulate", "--family", "rayleigh", "--params", "5",
                           "--n", "20", "--type2-r", "15", "--seed", "7")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        w = [float(r[0]) for r in rows]
        delta = [int(r[1]) for r in rows]
        assert len(rows) == 20
        assert sum(delta) == 15
        exact = [v for v, d in zip(w, delta) if d == 1]
        censored = [v for v, d in zip(w, delta) if d == 0]
        assert censored == [max(exact)] * 5

    def test_infinite_censor_time_keeps_everything(self, capsys):
        code, out, _ = run(capsys, "simulate", "--family", "normal", "--params", "0,1",
                           "--n", "50", "--censor-time", "inf", "--seed", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(int(r[1]) == 1 for r in rows)

    @pytest.mark.parametrize("family", ["normal", "laplace"])
    @pytest.mark.parametrize("cutoff", ["nan", "-inf"])
    def test_nan_censor_time_exits_one(self, capsys, family, cutoff):
        code, out, err = run(capsys, "simulate", "--family", family, "--params", "0,1",
                             "--n", "5", f"--censor-time={cutoff}")
        assert code == 1
        assert out == ""
        assert "--censor-time" in err

    @pytest.mark.parametrize("cutoff", ["0", "-1.5", "-inf"])
    def test_nonpositive_rayleigh_censor_time_exits_one(self, capsys, cutoff):
        # such a sample would hold only w <= 0, which fit refuses
        code, out, err = run(capsys, "simulate", "--family", "rayleigh", "--params", "1",
                             "--n", "4", f"--censor-time={cutoff}")
        assert code == 1
        assert out == ""
        assert "--censor-time must be positive" in err

    def test_same_seed_reproduces_bytes(self, capsys):
        argv = ["simulate", "--family", "laplace", "--params", "0,2",
                "--n", "30", "--censor-time", "1.5", "--seed", "11"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        _, other, _ = run(capsys, *argv[:-1], "12")
        assert other != first

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_one(self, capsys, seed):
        # the seed is refused as fit refuses it, not wrapped modulo 2**64
        code, out, err = run(capsys, "simulate", "--family", "normal", "--params", "0,1",
                             "--n", "5", "--censor-time", "1.0", f"--seed={seed}")
        assert code == 1
        assert out == ""
        assert "seed must fit in an unsigned 64-bit integer" in err

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run(capsys, "simulate", "--family", "rayleigh", "--params", "-1",
                           "--n", "10", "--type2-r", "5")
        assert code == 1
        assert "error" in err

    def test_nonpositive_n_exits_one(self, capsys):
        code, _, err = run(capsys, "simulate", "--family", "normal", "--params", "0,1",
                           "--n", "0", "--censor-time", "1.0")
        assert code == 1
        assert "n must be at least 1" in err

    def test_type2_r_out_of_range_exits_one(self, capsys):
        code, _, err = run(capsys, "simulate", "--family", "normal", "--params", "0,1",
                           "--n", "5", "--type2-r", "6")
        assert code == 1
        assert "--type2-r" in err

    def test_censoring_modes_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--family", "normal", "--params", "0,1", "--n", "5",
                  "--type2-r", "3", "--censor-time", "1.0"])
        assert exc.value.code == 1
        capsys.readouterr()


class TestRoundTrips:
    def test_simulate_then_fit_recovers_the_normal_model(self, capsys, tmp_path):
        # aggregate bias over independent seeds stays within CLT bands
        mu, sigma2, n = 2.0, 4.0, 120
        estimates = []
        for seed in range(20):
            path = tmp_path / f"sim{seed}.csv"
            code, _, _ = run(capsys, "simulate", "--family", "normal",
                             "--params", f"{mu},{sigma2}", "--n", str(n),
                             "--censor-time", "3.0", "--seed", str(seed),
                             "--output", str(path))
            assert code == 0
            code, out, _ = run(capsys, "fit", "--family", "normal",
                               "--data", str(path), "--tol", "1e-10")
            assert code == 0
            estimates.append(float(out.split("final: mu=")[1].split()[0]))
        err = np.mean(estimates) - mu
        # allow 3 standard errors of the seed average plus O(1/n) bias
        band = 3.0 * np.std(estimates, ddof=1) / math.sqrt(len(estimates)) + 3.0 / n
        assert abs(err) <= band

    def test_simulate_then_fit_recovers_the_rayleigh_scale(self, capsys, tmp_path):
        beta, n = 5.0, 2000
        censor_time = beta * math.sqrt(-2.0 * math.log(0.25))  # 75th percentile
        path = tmp_path / "ray.csv"
        code, _, _ = run(capsys, "simulate", "--family", "rayleigh",
                         "--params", str(beta), "--n", str(n),
                         "--censor-time", f"{censor_time}", "--seed", "3",
                         "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, "fit", "--family", "rayleigh", "--data", str(path),
                           "--k", "500", "--max-iter", "5", "--seed", "3")
        assert code == 0
        final = float(out.split("final: beta=")[1].split()[0])
        assert final == pytest.approx(beta, abs=0.15)
