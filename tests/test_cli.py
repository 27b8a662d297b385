"""Command-line interface: verbs, outputs, exit codes."""

import errno
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import csrkn
from csrkn import cli
from csrkn.cli import main

from conftest import reference_tableau_arrays


def test_derive_writes_reference_tableau(tmp_path):
    out = tmp_path / "legendre4.txt"
    assert main(["derive", "--method", "legendre4", "--gamma", "0",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == csrkn.serialize_tableau(csrkn.builtin_tableau("legendre4"))
    parsed = csrkn.parse_tableau(text)
    ref = reference_tableau_arrays("legendre4")
    np.testing.assert_allclose(parsed.a_bar, ref["a_bar"], atol=1e-13)
    np.testing.assert_allclose(parsed.c, ref["c"], atol=1e-13)


def test_derive_to_stdout(capsys):
    assert main(["derive", "--method", "hermite3"]) == 0
    captured = capsys.readouterr()
    parsed = csrkn.parse_tableau(captured.out)
    assert parsed.s == 3


def test_derive_custom_family_matches_builtin(tmp_path):
    out_custom = tmp_path / "custom.txt"
    out_builtin = tmp_path / "builtin.txt"
    assert main(["derive", "--family", "shifted-legendre", "--stages", "2",
                 "--symmetric", "--out", str(out_custom)]) == 0
    assert main(["derive", "--method", "legendre4", "--out",
                 str(out_builtin)]) == 0
    custom = csrkn.parse_tableau(out_custom.read_text())
    builtin = csrkn.parse_tableau(out_builtin.read_text())
    np.testing.assert_allclose(custom.a_bar, builtin.a_bar, atol=1e-13)
    np.testing.assert_allclose(custom.b_prime, builtin.b_prime, atol=1e-13)


def test_derive_custom_writes_derive_output(tmp_path):
    out = tmp_path / "custom.txt"
    assert main(["derive", "--family", "shifted-legendre", "--stages", "2",
                 "--symmetric", "--out", str(out)]) == 0
    spec = csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_LEGENDRE,
                                  symmetric=True)
    assert out.read_text() == csrkn.serialize_tableau(csrkn.derive(spec, 2))


def test_derive_custom_with_pinned_alpha(tmp_path):
    # rebuild the non-symmetric 3-stage method through the generic surface
    out = tmp_path / "pinned.txt"
    assert main(["derive", "--family", "standard-hermite", "--stages", "3",
                 "--set-alpha", "0", "1", "-0.47069813188835746",
                 "--set-alpha", "1", "2", "0",
                 "--set-alpha", "2", "2", "0",
                 "--out", str(out)]) == 0
    custom = csrkn.parse_tableau(out.read_text())
    builtin = csrkn.builtin_tableau("hermite3")
    np.testing.assert_allclose(custom.a_bar, builtin.a_bar, atol=1e-13)
    np.testing.assert_allclose(custom.b_bar, builtin.b_bar, atol=1e-13)


def test_negative_exponent_values_parse(tmp_path, capsys):
    # argparse alone reads "-4e-05" as a flag and exits with a usage error
    out = tmp_path / "g.txt"
    assert main(["derive", "--method", "legendre4", "--gamma", "-4e-05",
                 "--out", str(out)]) == 0
    assert out.read_text() == csrkn.serialize_tableau(
        csrkn.builtin_tableau("legendre4", -4e-05))
    assert main(["derive", "--family", "standard-hermite", "--stages", "3",
                 "--set-alpha", "0", "1", "-4.7069813188835746e-1",
                 "--set-alpha", "1", "2", "0",
                 "--set-alpha", "2", "2", "0",
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(csrkn.parse_tableau(out.read_text()).a_bar,
                               csrkn.builtin_tableau("hermite3").a_bar,
                               atol=1e-13)
    csv = tmp_path / "t0.csv"
    assert main(["run", "--method", "legendre4", "--problem", "harmonic",
                 "--h", "0.1", "--steps", "2", "--t0", "-1e-3",
                 "--out", str(csv)]) == 0
    assert float(csv.read_text().splitlines()[1].split(",")[0]) == -1e-3
    capsys.readouterr()


def test_successive_calls_share_no_arguments(tmp_path):
    # main reuses one parser per process; a second call must see only its
    # own --set-alpha pin (both pins together are inconsistent and exit 1)
    outputs = []
    for pin in (["0", "2", "0.1"], ["2", "2", "0"]):
        out = tmp_path / f"pin{len(outputs)}.txt"
        assert main(["derive", "--family", "shifted-chebyshev1",
                     "--stages", "3", "--symmetric", "--set-alpha", *pin,
                     "--out", str(out)]) == 0
        outputs.append(out.read_text())
    spec = csrkn.ConstructionSpec(family=csrkn.Family.SHIFTED_CHEBYSHEV1,
                                  symmetric=True, free_alpha={(2, 2): 0.0})
    assert outputs[1] == csrkn.serialize_tableau(csrkn.derive(spec, 3))
    assert outputs[0] != outputs[1]
    assert csrkn.cli._parser() is csrkn.cli._parser()


def test_parser_not_built_at_import():
    code = ("import csrkn.cli; "
            "print(csrkn.cli._parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "0"


def test_check_hermite3_report(capsys, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["check", "--method", "hermite3", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "B kappa=4: 5.000e-01" in captured
    assert "not applicable" in captured
    assert "predicted order: 3" in captured
    assert out.read_text().startswith("condition,kappa,residual\n")


def test_check_symmetric_method(capsys):
    assert main(["check", "--method", "chebyshev4"]) == 0
    captured = capsys.readouterr().out
    assert "predicted order: 4" in captured
    assert "symmetry residual" in captured


def test_run_kepler_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    argv = ["run", "--method", "legendre4", "--problem", "kepler",
            "--h", "0.1", "--steps", "50", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    lines = first.splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H_err,angmom_err,rlp_err"
    assert len(lines) == 1 + 51
    drift = max(float(line.split(",")[6]) for line in lines[1:])
    assert drift < 1e-12
    # byte-stable across reruns
    assert main(argv) == 0
    assert out.read_text() == first


def test_run_harmonic_header(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["run", "--method", "hermite4", "--problem", "harmonic",
                 "--h", "0.1", "--steps", "10", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "t,q1,p1,H_err"


def test_run_record_every(tmp_path):
    out = tmp_path / "thin.csv"
    assert main(["run", "--method", "legendre4", "--problem", "kepler",
                 "--h", "0.1", "--steps", "100", "--record-every", "10",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 11


def run_argv(steps, out):
    return ["run", "--method", "chebyshev4", "--problem", "kepler", "--h",
            "0.1", "--steps", str(steps), "--out", str(out)]


@pytest.mark.parametrize("verb", ["derive", "check", "run"])
def test_out_over_a_longer_file_equals_a_fresh_write(tmp_path, capsys,
                                                     verb):
    # --out is written in place and then cut: a shorter output over a
    # longer file leaves no old tail
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    if verb == "run":
        argvs = [run_argv(200, reused), run_argv(100, reused),
                 run_argv(100, fresh)]
    else:
        longer = [verb, "--family", "shifted-legendre", "--stages", "6",
                  "--symmetric", "--b-order", "8", "--cn-order", "3",
                  "--tau-degree", "4"]
        shorter = [verb, "--method", "legendre4"]
        argvs = [longer + ["--out", str(reused)],
                 shorter + ["--out", str(reused)],
                 shorter + ["--out", str(fresh)]]
    assert main(argvs[0]) == 0
    size = reused.stat().st_size
    for argv in argvs[1:]:
        assert main(argv) == 0
    capsys.readouterr()
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.stat().st_size < size


def test_out_through_a_symlink_keeps_the_link(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    assert main(run_argv(10, link)) == 0
    assert main(run_argv(10, tmp_path / "fresh.csv")) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_out_keeps_an_existing_file_mode(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    out.write_text("old")
    out.chmod(0o640)
    assert main(run_argv(10, out)) == 0
    capsys.readouterr()
    assert out.stat().st_mode & 0o777 == 0o640
    assert out.read_text().startswith("t,q1,q2,p1,p2")


def test_failed_write_over_a_longer_file_leaves_no_old_bytes(
        tmp_path, capsys, monkeypatch):
    # the writer raises after more than a buffer of new bytes reached the
    # file: what is left is a prefix of the new output, and main exits 1
    out, fresh = tmp_path / "traj.csv", tmp_path / "fresh.csv"
    out.write_bytes(b"x" * 1_000_000)
    assert main(run_argv(100, fresh)) == 0
    written = fresh.read_text()

    def failing(trajectory, problem, stream):
        stream.write(written[:50_000])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_trajectory_csv", failing)
    assert main(run_argv(100, out)) == 1
    capsys.readouterr()
    data = out.read_bytes()
    assert b"x" not in data and 0 < len(data) <= 50_000
    assert written.encode().startswith(data)


def test_out_to_a_device(capsys):
    # a device cannot be truncated: --out /dev/null writes and exits 0
    assert main(run_argv(10, os.devnull)) == 0
    assert capsys.readouterr().out.startswith("wrote 11 samples to ")


def test_order_study_output(capsys):
    assert main(["order", "--method", "legendre4", "--problem", "harmonic",
                 "--h0", "0.1", "--levels", "4"]) == 0
    captured = capsys.readouterr().out
    mean = float(captured.strip().splitlines()[-1].split(":")[1])
    assert abs(mean - 4.0) < 0.2


@pytest.mark.parametrize("levels", ["1", "0", "-3"])
def test_order_without_a_slope_is_usage_error(capsys, levels):
    # one level used to exit 0 printing "mean slope: nan"
    assert main(["order", "--method", "legendre4", "--problem", "harmonic",
                 "--h0", "0.1", f"--levels={levels}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --levels must be >= 2, got {levels}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name", csrkn.BUILTIN_METHODS)
def test_every_method_accepted_by_every_verb(tmp_path, capsys, name):
    assert main(["derive", "--method", name,
                 "--out", str(tmp_path / "t.txt")]) == 0
    assert main(["check", "--method", name]) == 0
    assert main(["run", "--method", name, "--problem", "henon-heiles",
                 "--h", "0.1", "--steps", "3",
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert main(["order", "--method", name, "--problem", "harmonic",
                 "--h0", "0.2", "--levels", "3"]) == 0
    capsys.readouterr()


def test_unknown_method_is_usage_error(capsys):
    assert main(["check", "--method", "gauss99"]) == 1
    assert main(["run", "--method", "legendre4", "--problem", "lorenz",
                 "--h", "0.1", "--steps", "5", "--out", "x.csv"]) == 1
    capsys.readouterr()


def test_missing_method_and_family_is_usage_error(capsys):
    assert main(["check"]) == 1
    assert capsys.readouterr().err == (
        "error: either --method or --family is required\n")
    assert main(["derive", "--family", "shifted-legendre"]) == 1
    assert capsys.readouterr().err == (
        "error: --stages is required with --family\n")


def test_solver_failure_is_numerical_error(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    code = main(["run", "--method", "hermite3", "--problem", "kepler",
                 "--h", "50", "--steps", "10", "--out", str(out)])
    assert code == 2
    assert "step" in capsys.readouterr().err


def test_invalid_custom_spec_is_usage_error(capsys):
    assert main(["derive", "--family", "standard-hermite", "--stages", "3",
                 "--symmetric"]) == 1
    capsys.readouterr()


# 13 and 17 stages used to fail on the basis memo's degree cap, 0 and -2
# on the Gauss rule's "s must be in 1..8"
@pytest.mark.parametrize("stages", ["13", "17", "0", "-2"])
@pytest.mark.parametrize("verb", ["derive", "check", "run"])
def test_stage_count_outside_the_cap_is_usage_error(tmp_path, capsys, verb,
                                                    stages):
    out = tmp_path / "out.txt"
    argv = [verb, "--family", "shifted-legendre", "--stages", stages,
            "--out", str(out)]
    if verb == "run":
        argv += ["--problem", "kepler", "--h", "0.1", "--steps", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: stages must be in 1..12, got {stages}\n"
    assert captured.out == ""
    assert not out.exists()


# b_order 20 used to exit 1 naming the basis memo: "degree must be in
# 0..12 (the cap bounds the memo), got 20"
@pytest.mark.parametrize("b_order", ["13", "20"])
@pytest.mark.parametrize("verb", ["derive", "check", "run"])
def test_b_order_past_the_cap_is_usage_error(tmp_path, capsys, verb,
                                             b_order):
    out = tmp_path / "out.txt"
    argv = [verb, "--family", "shifted-legendre", "--b-order", b_order,
            "--stages", "3", "--out", str(out)]
    if verb == "run":
        argv += ["--problem", "kepler", "--h", "0.1", "--steps", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: b_order must be in 1..12, got {b_order}\n"
    assert captured.out == ""
    assert not out.exists()


# an --out in a missing directory used to end in a FileNotFoundError
# traceback, with an exit code outside 0/1/2
@pytest.mark.parametrize("verb", ["derive", "check", "run"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, verb):
    out = tmp_path / "missing" / "x.csv"
    argv = [verb, "--method", "legendre4", "--out", str(out)]
    if verb == "run":
        argv += ["--problem", "kepler", "--h", "0.1", "--steps", "10"]
    assert main(argv) == 1
    expected = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                 str(out))
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.parent.exists()


def test_numerical_failure_writes_no_file(tmp_path, capsys):
    # run integrates before it opens --out, so a failed run leaves nothing
    out = tmp_path / "fail.csv"
    assert main(["run", "--method", "hermite3", "--problem", "kepler",
                 "--h", "50", "--steps", "10", "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--h", "nan", "step size must be finite and nonzero, got nan"),
    ("--h", "inf", "step size must be finite and nonzero, got inf"),
    ("--h", "-inf", "step size must be finite and nonzero, got -inf"),
    ("--h", "0", "step size must be finite and nonzero, got 0.0"),
    ("--t0", "nan", "start time must be finite, got nan")])
def test_run_non_finite_step_or_start_is_usage_error(tmp_path, capsys, flag,
                                                     value, message):
    out = tmp_path / "r.csv"
    options = {"--h": "0.1", "--t0": "0", flag: value}
    argv = ["run", "--method", "legendre4", "--problem", "kepler",
            "--steps", "5", "--out", str(out)]
    # "--h=-inf": a separate "-inf" would read as an option
    argv += [f"{name}={option}" for name, option in options.items()]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--h0", "0", "h0 must be finite and nonzero, got 0.0"),
    ("--h0", "nan", "h0 must be finite and nonzero, got nan"),
    ("--h0", "-inf", "h0 must be finite and nonzero, got -inf"),
    ("--t-end", "nan", "t_end must be finite, got nan"),
    ("--t-end", "inf", "t_end must be finite, got inf")])
def test_order_bad_step_or_end_is_usage_error(capsys, flag, value, message):
    options = {"--h0": "0.1", "--t-end": "1", flag: value}
    argv = ["order", "--method", "hermite4", "--problem", "harmonic",
            "--levels", "2"]
    # "--h0=-inf": a separate "-inf" would read as an option
    argv += [f"{name}={option}" for name, option in options.items()]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", [
    "-inf", "-INF", "-Inf", "-infinity", "-Infinity", "-nan", "-NaN", "-NAN"])
def test_negative_non_finite_values_parse(value):
    args = csrkn.cli.build_parser().parse_args(
        ["run", "--method", "legendre4", "--problem", "kepler", "--steps",
         "5", "--out", "r.csv", "--h", value, "--gamma", value,
         "--t0", value])
    for parsed in (args.h, args.gamma, args.t0):
        assert repr(parsed) == repr(float(value))


@pytest.mark.parametrize("argv,message", [
    (["run", "--h", "-inf"], "step size must be finite and nonzero, got -inf"),
    (["run", "--h", "-Infinity"],
     "step size must be finite and nonzero, got -inf"),
    (["run", "--h", "0.1", "--t0", "-NaN"],
     "start time must be finite, got nan"),
    (["order", "--h0", "-INF"], "h0 must be finite and nonzero, got -inf"),
    (["order", "--h0", "0.1", "--t-end", "-nan"],
     "t_end must be finite, got nan"),
    (["order", "--h0", "-0.1"], "t_end / h0 must round to a finite step "
     "count >= 1, got h0 = -0.1 and t_end = 1.0"),
    (["order", "--h0", "3"], "t_end / h0 must round to a finite step "
     "count >= 1, got h0 = 3.0 and t_end = 1.0"),
    (["order", "--h0", "1e-320"], "t_end / h0 must round to a finite step "
     "count >= 1, got h0 = 1e-320 and t_end = 1.0")])
def test_separate_token_values_reach_the_usage_error(tmp_path, capsys, argv,
                                                     message):
    out = tmp_path / "r.csv"
    common = {"run": ["--steps", "5", "--out", str(out)],
              "order": ["--levels", "2"]}[argv[0]]
    problem = {"run": "kepler", "order": "harmonic"}[argv[0]]
    assert main([argv[0], "--method", "hermite4", "--problem", problem,
                 *common, *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize("verb", ["derive", "check", "run", "order"])
@pytest.mark.parametrize("method", ["legendre4", "hermite3"])
def test_non_finite_gamma_is_usage_error(tmp_path, capsys, verb, value,
                                         method):
    out = tmp_path / "out.txt"
    extra = {"derive": ["--out", str(out)], "check": ["--out", str(out)],
             "run": ["--problem", "kepler", "--h", "0.1", "--steps", "5",
                     "--out", str(out)],
             "order": ["--problem", "harmonic", "--h0", "0.1",
                       "--levels", "2"]}[verb]
    # a separate "-nan" token is a value too
    assert main([verb, "--method", method, "--gamma", value, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: gamma must be finite, got "
                            f"{float(value)!r}\n")
    assert captured.out == ""
    assert not out.exists()


def test_bad_step_exits_1_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv, message in [
            (["order", "--method", "hermite4", "--problem", "harmonic",
              "--h0", "0", "--levels", "2"],
             "h0 must be finite and nonzero, got 0.0"),
            (["run", "--method", "hermite4", "--problem", "harmonic",
              "--h", "nan", "--steps", "3", "--out", str(tmp_path / "r.csv")],
             "step size must be finite and nonzero, got nan")]:
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, csrkn.cli; sys.exit(csrkn.cli.main())", *argv],
            env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("flags", [
    ["--family", "shifted-hermite", "--stages", "5", "--b-order", "7"],
    ["--stages", "3"], ["--b-order", "3"], ["--cn-order", "2"],
    ["--tau-degree", "2"], ["--symmetric"], ["--set-alpha", "1", "1", "0"]])
@pytest.mark.parametrize("verb", ["derive", "check"])
def test_custom_flag_with_method_is_usage_error(tmp_path, capsys, verb,
                                                flags):
    # the flag used to be ignored: derive wrote legendre4 and exited 0
    out = tmp_path / "out.txt"
    assert main([verb, "--method", "legendre4", *flags,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flags[0]} does not apply to --method\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["0.3", "0"])
def test_gamma_with_family_is_usage_error(tmp_path, capsys, gamma):
    # gamma used to be dropped without a word
    out = tmp_path / "out.txt"
    assert main(["derive", "--family", "shifted-legendre", "--stages", "2",
                 "--symmetric", "--gamma", gamma, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --gamma applies only to --method\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
@pytest.mark.parametrize("verb", ["derive", "check"])
def test_non_finite_pinned_alpha_is_usage_error(tmp_path, capsys, verb,
                                                value):
    # derive used to write nan rows, check to predict order 4 from NaN
    # residuals
    out = tmp_path / "out.txt"
    assert main([verb, "--family", "shifted-legendre", "--stages", "2",
                 "--symmetric", "--set-alpha", "1", "1", value,
                 "--set-alpha", "1", "2", "0", "--set-alpha", "2", "2", "0",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: alpha(1, 1) must be finite, got "
                            f"{float(value)!r}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("pin,message", [
    (["1.5", "1", "0"], "--set-alpha index must be an integer, got '1.5'"),
    (["1", "two", "0"], "--set-alpha index must be an integer, got 'two'"),
    (["1", "1", "zero"], "--set-alpha value must be a number, got 'zero'"),
    (["1", "1", "1,5"], "--set-alpha value must be a number, got '1,5'")])
@pytest.mark.parametrize("verb", ["derive", "check"])
def test_malformed_pinned_alpha_is_usage_error(tmp_path, capsys, verb, pin,
                                               message):
    # used to print Python's conversion message, which names no flag
    out = tmp_path / "out.txt"
    assert main([verb, "--family", "shifted-legendre", "--stages", "2",
                 "--symmetric", "--set-alpha", "1", "2", "0",
                 "--set-alpha", *pin, "--set-alpha", "2", "2", "0",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("verb", ["derive", "check"])
def test_pinned_alpha_1_0_is_usage_error(tmp_path, capsys, verb):
    # used to pin alpha(0, 1) to the value given for alpha(1, 0)
    out = tmp_path / "out.txt"
    assert main([verb, "--family", "shifted-legendre", "--stages", "2",
                 "--set-alpha", "1", "0", "0.3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: alpha(1, 0) is alpha(0, 1) + <x, P_1>_w, "
                            "not free; pin alpha(0, 1) instead\n")
    assert captured.out == ""
    assert not out.exists()


def _spec_default_cases(count=30, seed=18):
    """Seeded custom constructions, each with a random subset of the
    construction flags given: (family, stages, argv flags, spec fields)."""
    rng = random.Random(seed)
    pins = [(0, 1, -0.3), (1, 1, 0.25), (1, 2, 0.0), (2, 2, 0.0),
            (0, 2, 0.1)]
    cases = []
    for _ in range(count):
        family = rng.choice(list(csrkn.Family))
        flags, fields = [], {}
        for name, values in (("b_order", range(1, 9)),
                             ("cn_order", range(1, 4)),
                             ("tau_degree", range(1, 5))):
            if rng.random() < 0.5:
                fields[name] = rng.choice(values)
                flags += [f"--{name.replace('_', '-')}", str(fields[name])]
        if rng.random() < 0.5:
            fields["symmetric"] = True
            flags.append("--symmetric")
        if rng.random() < 0.5:
            chosen = rng.sample(pins, rng.randint(1, 3))
            fields["free_alpha"] = {(i, j): v for i, j, v in chosen}
            for i, j, v in chosen:
                flags += ["--set-alpha", str(i), str(j), repr(v)]
        cases.append((family, rng.randint(1, 5), flags, fields))
    return cases


@pytest.mark.parametrize("family,stages,flags,fields", _spec_default_cases())
def test_cli_takes_its_defaults_from_the_spec(capsys, family, stages, flags,
                                              fields):
    try:
        tableau = csrkn.derive(csrkn.ConstructionSpec(family, **fields),
                               stages)
        expected = (0, csrkn.serialize_tableau(tableau), "")
    except csrkn.ConstructionError as err:
        expected = (1, "", f"error: {err}\n")
    code = main(["derive", "--family", family.value, "--stages", str(stages),
                 *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
