import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eechain
from eechain import parse_table
from eechain.cli import main, parse_config

INF = math.inf


def test_parse_config_point():
    cfg = parse_config(["ee", "--n", "100", "--na", "10", "--z", "3", "--beta", "inf"])
    assert cfg.command == "ee"
    assert (cfg.n, cfg.na, cfg.z) == (100, 10, 3)
    assert cfg.beta == INF
    assert cfg.mass == 0.0 and cfg.epsilon == 1.0 and cfg.theta == 0.0


def test_parse_config_lists_and_temp():
    cfg = parse_config(
        ["sweep", "--n", "50", "--zs", "1,2,3", "--betas", "1,inf", "--nas", "2,4",
         "--jobs", "2"]
    )
    assert cfg.zs == (1, 2, 3)
    assert cfg.betas == (1.0, INF)
    assert cfg.nas == (2, 4)
    assert cfg.jobs == 2
    cfg = parse_config(["ee", "--n", "10", "--na", "2", "--z", "1", "--temp", "4"])
    assert cfg.beta == pytest.approx(0.25)


def test_noninteger_z_is_usage_error(capsys):
    assert main(["ee", "--n", "10", "--na", "2", "--z", "2.5"]) == 2
    assert "--z must be an integer" in capsys.readouterr().err


def test_nonpositive_beta_is_usage_error(capsys):
    assert main(["ee", "--n", "10", "--na", "2", "--z", "1", "--beta", "0"]) == 2
    assert main(["ee", "--n", "10", "--na", "2", "--z", "1", "--temp", "-1"]) == 2
    # a TEMP that is not finite is named, not the beta it would give
    for temp in ("inf", "nan"):
        capsys.readouterr()
        assert main(["ee", "--n", "10", "--na", "2", "--z", "1", "--temp", temp]) == 2
        assert f"--temp must be positive and finite, got '{temp}'" in capsys.readouterr().err


def test_beta_temp_mutually_exclusive(capsys):
    rc = main(["ee", "--n", "10", "--na", "2", "--z", "1", "--beta", "2", "--temp", "1"])
    assert rc == 2


# flags of one axis exclude each other, rather than one silently winning
AXIS_CONFLICTS = {
    "z-zs": "sweep --n 10 --z 1 --zs 2 --nas 3",
    "na-nas": "sweep --n 10 --z 1 --na 5 --nas 3",
    "beta-betas": "sweep --n 10 --z 1 --beta 1 --betas 2 --nas 3",
    "temp-betas": "sweep --n 10 --z 1 --temp 1 --betas 2 --nas 3",
}


@pytest.mark.parametrize("argv", AXIS_CONFLICTS.values(), ids=AXIS_CONFLICTS.keys())
def test_flags_of_one_axis_exclude_each_other(argv, capsys):
    assert main(argv.split()) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_help_of_each_command(capsys):
    for command in ("ee", "sweep", "fit", "cmera", "oracle-check"):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: eechain {command}")


def test_missing_required_flag(capsys):
    assert main(["ee", "--na", "2", "--z", "1"]) == 2
    assert "requires --n" in capsys.readouterr().err


def test_unknown_flag_and_command(capsys):
    assert main(["ee", "--frobnicate", "1"]) == 2
    assert main(["dance"]) == 2
    capsys.readouterr()


def test_config_file_merging(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# lattice point\n"
        "n = 4\n"
        "na = 2\n"
        "z = 1\n"
        "beta = inf  # ground state\n"
    )
    cfg = parse_config(["ee", "--config", str(cfg_file)])
    assert (cfg.n, cfg.na, cfg.z, cfg.beta) == (4, 2, 1, INF)
    # command-line flags win over file values
    cfg = parse_config(["ee", "--config", str(cfg_file), "--na", "1"])
    assert cfg.na == 1


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("frobnicate = 1\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "unknown key" in capsys.readouterr().err
    # keys are per command: ee reads no --nas
    cfg_file.write_text("n = 10\nz = 1\nnas = 4\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "unknown key 'nas' for ee" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg_file)]) == 0


SWEEP_USAGE_ERRORS = {
    "no-z": ("sweep --n 10 --nas 2", "sweep requires --z or --zs"),
    "no-na": ("sweep --n 10 --z 1", "sweep requires --na or --nas"),
    "empty-list": ("sweep --n 10 --zs , --nas 2", "--zs needs a comma-separated list"),
}


@pytest.mark.parametrize(
    "argv, message", SWEEP_USAGE_ERRORS.values(), ids=SWEEP_USAGE_ERRORS.keys()
)
def test_sweep_without_an_axis_is_usage_error(argv, message, capsys):
    assert main(argv.split()) == 2
    assert message in capsys.readouterr().err


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("na = 2\nn 10\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert f"{cfg_file}:2: expected key = value" in capsys.readouterr().err


def test_config_file_missing(capsys):
    assert main(["ee", "--config", "/nonexistent/file.cfg"]) == 2


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    # read as UTF-8 whatever the locale, so a file parses alike everywhere
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xff\xfen = 4\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


WRITING_ARGVS = {
    "ee": ["ee", "--n", "20", "--na", "5", "--z", "1"],
    "ee-csv": ["ee", "--n", "20", "--na", "5", "--z", "1", "--format", "csv"],
    "sweep": ["sweep", "--n", "20", "--na", "5", "--zs", "1,2"],
    "fit-json": ["fit", "--n", "40", "--na", "4", "--z", "1", "--format", "json"],
    "cmera": ["cmera", "--z", "1"],
}


def _assert_one_line_cannot_write(err):
    assert err.startswith("eechain: error: cannot write")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", WRITING_ARGVS.values(), ids=WRITING_ARGVS.keys())
@pytest.mark.parametrize("out", ["directory", "missing/x"])
def test_unwritable_out_exits_2_with_one_line(argv, out, tmp_path, capsys):
    target = tmp_path if out == "directory" else tmp_path / out
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line_cannot_write(captured.err)
    assert str(target) in captured.err


@pytest.mark.parametrize("argv", WRITING_ARGVS.values(), ids=WRITING_ARGVS.keys())
def test_unwritable_stdout_exits_2_with_one_line(argv, capsys):
    def full(data=None):
        raise OSError(28, "No space left on device")

    stdout = SimpleNamespace(buffer=SimpleNamespace(write=full, flush=full))
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 2
    err = capsys.readouterr().err
    _assert_one_line_cannot_write(err)
    assert "stdout" in err


def test_site_out_of_range_is_named_not_listed(capsys):
    # the message names the first site past N, not all N_A of them
    assert main(["ee", "--n", "100", "--na", "100000", "--z", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert "site 100" in err


def test_ee_plain_value(capsys):
    assert main(["ee", "--n", "4", "--na", "2", "--z", "1", "--beta", "inf"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.66598212279875, rel=1e-10)


def test_ee_csv_to_file(tmp_path):
    out = tmp_path / "point.csv"
    rc = main(
        ["ee", "--n", "4", "--na", "2", "--z", "1", "--beta", "inf",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    table = parse_table(out.read_bytes())
    assert len(table.rows) == 1
    assert table.rows[0].beta == INF
    assert table.rows[0].entropy == pytest.approx(1.66598212279875, rel=1e-10)


def test_sweep_stdout_and_jobs(capsys):
    argv = ["sweep", "--n", "20", "--zs", "1,2", "--beta", "inf", "--nas", "2,5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == "z,beta,n,na,epsilon,mass,entropy"
    assert len(first.splitlines()) == 5
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == first


def test_sweep_jobs_rows_equal_the_serial_rows(capsys):
    # twisted massive and thermal points on the short chain, one group per
    # worker process
    argv = ["sweep", "--n", "100000", "--zs", "1,2,3", "--betas", "50,inf",
            "--nas", "16,40", "--mass", "0.3", "--theta", "0.3183"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert len(serial.splitlines()) == 13
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_sweep_svg(tmp_path):
    out = tmp_path / "plot.svg"
    rc = main(
        ["sweep", "--n", "40", "--z", "1", "--beta", "inf",
         "--nas", "2,4,8,16", "--format", "svg", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_bytes().startswith(b"<svg ")


def test_fit_text_report(capsys):
    rc = main(["fit", "--n", "400", "--na", "10", "--z", "1", "--regime", "low"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "regime: low" in out
    assert "coeff[x^2]" in out
    assert "residual rms" in out


def test_fit_json(capsys):
    rc = main(
        ["fit", "--n", "400", "--na", "10", "--z", "2", "--regime", "low",
         "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == ["1", "x", "x^2"]
    assert len(payload["coefficients"]) == 3


@pytest.mark.parametrize("z, na", [(1, 10), (2, 12), (3, 8)])
def test_fit_explicit_betas_equal_the_default_grid(z, na, capsysbinary):
    # the default low grid's betas, given back as --betas, give the same fit
    argv = ["fit", "--n", "400", "--na", str(na), "--z", str(z), "--format", "json"]
    betas = eechain.default_low_temperature_betas(z, na)
    assert main(argv) == 0
    default = capsysbinary.readouterr().out
    assert main([*argv, "--betas", ",".join(repr(float(b)) for b in betas)]) == 0
    assert capsysbinary.readouterr().out == default


def test_fit_unreachable_regime_is_runtime_error(capsys):
    rc = main(["fit", "--n", "200", "--na", "50", "--z", "1", "--regime", "high"])
    assert rc == 1
    assert "RegimeUnreachable" in capsys.readouterr().err


def test_cmera_profile_csv(capsys):
    rc = main(["cmera", "--z", "1", "--mass", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u,phi,g,guu"
    assert len(lines) == 502
    u0 = [float(v) for v in lines[-1].split(",")]
    assert u0[0] == 0.0
    assert u0[2] == pytest.approx(-3 * math.pi / 8 + 0.25, rel=1e-10)


def test_oracle_check_ok(capsys):
    rc = main(
        ["oracle-check", "--n", "4", "--na", "2", "--z", "1",
         "--mass", "0.5", "--beta", "inf"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2


def test_oracle_check_builds_one_correlation_matrix(monkeypatch, capsys):
    # the entropy reads the leading N_A x N_A blocks of the full chain's matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    build = eechain.cli.build_correlation_matrix
    monkeypatch.setattr(eechain.cli, "build_correlation_matrix", counted)
    argv = ["oracle-check", "--n", "5", "--na", "3", "--z", "3", "--mass", "0.5",
            "--beta", "2", "--theta", "0.25"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("OK") == 2
    assert len(calls) == 1


def test_oracle_check_of_a_pure_subsystem_prints_zero(capsys):
    # one site of a pure two-site chain: both entropies are +0, not -0
    assert main(["oracle-check", "--n", "2", "--na", "1", "--z", "1", "--mass", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("entropy: fast = 0  oracle = 0  diff = 0.000e+00 "), line


class _ArrayMemoryError(MemoryError):
    """Like numpy's: a private subclass, raised where an allocation fails."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_memory_error_exits_1_without_traceback(error, monkeypatch, capsys):
    # a valid N whose N-site partial DFT asks for 22.6 GiB; the test asks
    # for none of it
    message = "Unable to allocate 22.6 GiB for an array with shape (3037000499,)"

    def exhausted(*args):
        raise error(message)

    monkeypatch.setattr(eechain.cli, "entropy_of", exhausted)
    argv = ["ee", "--n", "3037000499", "--na", "600", "--z", "1", "--beta", "1e10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eechain: MemoryError: {message}\n"


def test_oracle_check_rejects_large_chain(capsys):
    rc = main(["oracle-check", "--n", "12", "--na", "2", "--z", "1", "--mass", "1"])
    assert rc == 2
    assert "at most" in capsys.readouterr().err


MODEL = ("--n", "--na", "--z", "--mass", "--beta", "--temp", "--eps", "--theta")
COMMAND_FLAGS = {  # the flags each command reads, besides --config
    "ee": (*MODEL, "--format", "--out"),
    "sweep": (*MODEL, "--format", "--out", "--zs", "--betas", "--nas", "--jobs"),
    "fit": ("--n", "--na", "--z", "--mass", "--eps", "--theta", "--betas",
            "--regime", "--format", "--out", "--jobs"),
    "cmera": ("--z", "--mass", "--eps", "--format", "--out"),
    "oracle-check": MODEL,
}
FLAG_VALUES = {
    "--n": "4", "--na": "2", "--z": "1", "--mass": "0.5", "--beta": "2",
    "--temp": "1", "--eps": "1", "--theta": "0", "--zs": "1,2", "--betas": "1,2",
    "--nas": "1,2", "--regime": "low", "--format": "json", "--out": "x.csv",
    "--jobs": "1",
}


def test_each_command_accepts_only_the_flags_it_reads(capsys):
    # 53 (command, flag) pairs, --config on each command included
    assert sum(len(flags) + 1 for flags in COMMAND_FLAGS.values()) == 53
    for command, flags in COMMAND_FLAGS.items():
        for flag, value in FLAG_VALUES.items():
            if flag in flags:
                parse_config([command, flag, value])
                continue
            with pytest.raises(SystemExit):
                parse_config([command, flag, value])
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


UNREAD_FLAGS = {
    "cmera-beta": "cmera --z 1 --beta 2",
    "ee-nas": "ee --n 10 --na 2 --z 1 --nas 4",
    "oracle-check-format": "oracle-check --n 4 --na 2 --z 1 --mass 0.5 --format json",
    # no abbreviations: fit's --betas does not take --beta
    "fit-beta": "fit --n 400 --na 10 --z 1 --beta 2",
}


@pytest.mark.parametrize("argv", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    assert main(argv.split()) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


UNWRITTEN_FORMATS = {  # fit writes json or a text report; ee has no plot
    "fit-csv": "fit --n 400 --na 10 --z 1 --format csv",
    "fit-svg": "fit --n 400 --na 10 --z 1 --format svg",
    "ee-svg": "ee --n 10 --na 2 --z 1 --format svg",
}


@pytest.mark.parametrize("argv", UNWRITTEN_FORMATS.values(), ids=UNWRITTEN_FORMATS.keys())
def test_format_the_command_does_not_write_exits_2(argv, tmp_path, capsys):
    *flags, fmt = argv.split()
    assert main([*flags, fmt]) == 2
    assert "invalid choice" in capsys.readouterr().err
    # a config file's format is checked alike
    cfg_file = tmp_path / "format.cfg"
    cfg_file.write_text(f"format = {fmt}\n")
    assert main([*flags[:-1], "--config", str(cfg_file)]) == 2
    assert "invalid choice" in capsys.readouterr().err


POINT = "ee --n 10 --na 2 --z 1"
INVALID_PARAMETERS = {
    "ee-n1": f"{POINT} --n 1",
    "ee-z0": f"{POINT} --z 0",
    "ee-theta2": f"{POINT} --theta 2",
    "ee-na0": f"{POINT} --na 0",
    "ee-mass-inf": f"{POINT} --mass inf",
    "ee-eps0": f"{POINT} --eps 0",
    "ee-mass-nan": f"{POINT} --mass nan",
    "ee-eps-inf": f"{POINT} --eps inf",
    "ee-beta-nan": f"{POINT} --beta nan",
    "ee-temp0": f"{POINT} --temp 0",
    "ee-temp-nan": f"{POINT} --temp nan",
    "oracle-temp-inf": "oracle-check --n 4 --na 2 --z 1 --mass 0.5 --temp inf",
    "sweep-jobs0": "sweep --n 10 --z 1 --nas 2 --jobs 0",
    "cmera-eps0": "cmera --z 1 --eps 0",
    "cmera-eps-negative": "cmera --z 1 --eps -1",
    "oracle-na-past-n": "oracle-check --n 3 --na 4 --z 1 --mass 1",
    "ee-mass-overflows": "ee --n 4 --na 2 --z 1 --mass 1e308",
    "oracle-eps-overflows": "oracle-check --n 4 --na 2 --z 3 --eps 1e-300 --theta 0.5",
    "ee-na-past-n": "ee --n 10 --na 20 --z 1",
    "sweep-na-past-n": "sweep --n 10 --nas 20 --z 1",
    "fit-na-past-n": "fit --n 10 --na 20 --z 1",
    "cmera-mass-nan": "cmera --z 1 --mass nan",
    "cmera-mass-negative": "cmera --z 1 --mass -1",
    "cmera-z0": "cmera --z 0",
    "cmera-z-negative": "cmera --z -2",
}


@pytest.mark.parametrize(
    "argv", INVALID_PARAMETERS.values(), ids=INVALID_PARAMETERS.keys()
)
def test_invalid_model_parameter_exits_2(argv, capsys):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("eechain: error: ")


def test_config_file_values_are_checked(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("n = 4\nna = 2\nz = 1\nformat = xml\n")
    assert main(["ee", "--config", str(cfg_file)]) == 2
    assert "xml" in capsys.readouterr().err


def test_config_values_do_not_leak_into_the_next_call(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mass = 0.5\nformat = csv\n")
    argv = ["ee", "--n", "8", "--na", "2", "--z", "1", "--beta", "2"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out != default
    assert main(argv) == 0
    assert capsys.readouterr().out == default


def test_parser_is_built_once_at_import(tmp_path, monkeypatch, capsys):
    def rebuild():
        raise AssertionError("parser rebuilt per call")

    monkeypatch.setattr("eechain.cli._build_parser", rebuild)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("z = 1\n")
    assert main(["ee", "--n", "4", "--na", "2", "--config", str(cfg_file)]) == 0


ORACLE_ARGV = "oracle-check --n 5 --na 2 --z 3 --mass 0.7 --beta 1.5 --theta 0.3"
# argv: the solves hermitian_eigenvalues runs for it, as (linalg function,
# real or complex input); the exact zeros of the blocks pick them
EE_ARGVS = {
    # odd z, massless, theta = 0: the split's real singular-value solve of
    # the 300 x 300 block of P that joins the even sites to the odd ones,
    # threaded when BLAS may use two threads
    "ee --n 2000 --na 600 --z 1 --beta 100": {("svd", "real")},
    # even z, massless, theta = 0: the split's 300-row real eigvalsh of the
    # even sites' block of P, which the odd sites' block equals
    "ee --n 2000 --na 600 --z 2 --beta 100": {("eigvalsh", "real")},
    # the short chain of a massive point at a prime N: its FFTs and the
    # eigensolve
    "ee --n 100003 --na 64 --z 1 --mass 0.3 --beta 50": {("eigvalsh", "real")},
    # the partial-DFT path, its GEMMs and the eigensolve: a correlation
    # length too long for a chain shorter than N
    "ee --n 100003 --na 64 --z 1 --beta 100000": {("svd", "real")},
    # odd z, massive, at a generic theta on the short chain (M = 640), which
    # is untwisted: Re P = 0 and Im C = 0, so the split's 300-row real
    # eigvalsh of (Im P + Re C)D
    "ee --n 2000 --na 300 --z 3 --mass 0.3 --beta 50 --theta 0.25": {("eigvalsh", "real")},
    # the same point with no short chain (M >= N): the twisted N-site chain
    # has Re P != 0 and Im C != 0, so the split's 300-row complex eigvalsh
    # of i(P + iC)D
    "ee --n 600 --na 300 --z 3 --mass 0.3 --beta 50 --theta 0.25": {("eigvalsh", "complex")},
    # the Fermi sea at odd N has no parity zeros: the whole 300 x 300
    # complex singular-value solve
    "ee --n 2001 --na 300 --z 3 --beta inf": {("svd", "complex")},
    # one block pair, its leading blocks solved for every N_A: real P and C
    # for z = 2 join into the complex P + iC
    "sweep --n 2000 --zs 1,2 --betas 20,inf --nas 100,200,300 --mass 0.4": {
        ("eigvalsh", "real"),
        ("svd", "complex"),
    },
}

# Runs each argv given through cli.main in one interpreter and prints the
# stdout bytes of each, as {argv: text} JSON.
_CLI_DRIVER = """
import contextlib, io, json, sys
from eechain.cli import main
outputs = {}
for argv in sys.argv[1:]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\\n")
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
        out.flush()
    if code != 0:
        sys.exit(f"{argv}: exit {code}")
    outputs[argv] = out.buffer.getvalue().decode()
json.dump(outputs, sys.stdout)
"""


def _fresh_interpreter(script, argvs, **env):
    """stdout of the script run with argvs in a new interpreter, with env set."""
    src = str(Path(eechain.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    path = filter(None, (src, env.get("PYTHONPATH")))
    env["PYTHONPATH"] = os.pathsep.join(path)
    done = subprocess.run(
        [sys.executable, "-c", script, *argvs],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _cli_at_blas_threads(argvs, threads):
    """{argv: stdout} of the commands, run with OPENBLAS_NUM_THREADS set."""
    return json.loads(_fresh_interpreter(_CLI_DRIVER, argvs, OPENBLAS_NUM_THREADS=threads))


@pytest.fixture(scope="module")
def outputs_by_blas_threads():
    """Each determinism argv's stdout on one and on two BLAS threads: one
    interpreter per thread count, so the imports are paid twice in all."""
    argvs = [ORACLE_ARGV, *EE_ARGVS]
    return [_cli_at_blas_threads(argvs, threads) for threads in ("1", "2")]


def test_oracle_check_bytes_do_not_depend_on_blas_threads(outputs_by_blas_threads):
    one, two = outputs_by_blas_threads
    assert one[ORACLE_ARGV] == two[ORACLE_ARGV]


@pytest.mark.parametrize("argv", EE_ARGVS)
def test_ee_bytes_do_not_depend_on_blas_threads(argv, outputs_by_blas_threads):
    one, two = outputs_by_blas_threads
    assert one[argv] == two[argv]


@pytest.mark.parametrize("argv", EE_ARGVS)
def test_ee_argv_takes_the_solve_its_comment_names(argv, monkeypatch):
    solves = set()
    for name in ("svd", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def recorded(a, *args, solve=solve, name=name, **kwargs):
            solves.add((name, "complex" if np.iscomplexobj(a) else "real"))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        assert main(argv.split()) == 0
    assert solves == EE_ARGVS[argv]


def test_cli_runs_without_scipy():
    # numpy is the one numeric dependency at run time.  The suite imports
    # scipy for its own references, so the CLI runs in a new interpreter.
    script = _CLI_DRIVER + (
        "\nprint()\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    argvs = [ORACLE_ARGV, "ee --n 100 --na 10 --z 3 --beta inf"]
    assert _fresh_interpreter(script, argvs).splitlines()[-1] == "[]"


def test_ee_out_holds_the_plain_value(tmp_path, capsysbinary):
    argv = ["ee", "--n", "10", "--na", "2", "--z", "1"]
    assert main(argv) == 0
    plain = capsysbinary.readouterr().out
    out = tmp_path / "value"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == plain == b"1.86352010999\n"
    assert capsysbinary.readouterr().out == b""


def test_huge_beta_saturates_without_overflow(capsys):
    # beta*omega overflows a float here, but tanh(beta*omega/2) is 1: the
    # point is the ground state, with no overflow warning on the way
    argv = ["ee", "--n", "64", "--na", "4", "--z", "1", "--mass", "10", "--beta"]
    assert main(argv + ["1e308"]) == 0
    huge = capsys.readouterr().out
    assert main(argv + ["inf"]) == 0
    assert huge == capsys.readouterr().out


def test_sweep_svg_over_infinite_beta(tmp_path, capsys):
    # the beta axis is logarithmic: the ground state becomes a labelled line
    out = tmp_path / "plot.svg"
    argv = ["sweep", "--n", "20", "--zs", "1,2", "--nas", "4", "--format", "svg"]
    assert main(argv + ["--betas", "1,10,inf", "--out", str(out)]) == 0
    svg = out.read_text()
    assert "z=1 b=inf" in svg and "z=2 b=inf" in svg
    assert main(argv + ["--betas", "10,inf"]) == 2
    assert "two finite betas" in capsys.readouterr().err
    # a repeated ground state is one beta value: the plot is over z
    assert main(argv + ["--betas", "inf,inf"]) == 0
    assert "S vs z" in capsys.readouterr().out


def test_svg_sweep_without_an_axis_is_usage_error(capsys):
    assert main("sweep --n 10 --zs 1 --nas 3 --format svg".split()) == 2
    assert "two distinct values" in capsys.readouterr().err


def test_sweep_svg_picks_its_plot_from_distinct_values(capsys):
    # a repeated N_A is one N_A value: the plot is over beta
    argv = "sweep --n 40 --z 1 --nas 4,4 --betas 1,10 --format svg"
    assert main(argv.split()) == 0
    assert "S vs beta" in capsys.readouterr().out
    # a repeated beta is one finite beta
    argv = "sweep --n 40 --z 1 --nas 4 --betas 10,10,inf --format svg"
    assert main(argv.split()) == 2
    assert "two finite betas" in capsys.readouterr().err


_JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-1", "1e-300", "1e308", "2.5", "x", ""]),
)


def _numbers(lo, hi, *specials):
    return st.sampled_from(specials) | st.floats(lo, hi).map(repr)


def _lists(item):
    return st.lists(item, min_size=1, max_size=3).map(",".join)


@st.composite
def _argvs(draw):
    """argv for one of the five commands at N <= 64 (N <= 5 for
    oracle-check), drawn from the flags that command reads.  Each flag is
    absent one time in four; half the argvs keep every value in range and
    take one flag of each axis at most, the other half may take any value."""
    command = draw(st.sampled_from(["ee", "sweep", "fit", "cmera", "oracle-check"]))
    n = draw(st.integers(2, 5 if command == "oracle-check" else 64))
    in_range = {
        "--n": st.just(str(n)),
        "--na": st.integers(1, n).map(str),
        "--z": st.integers(1, 9).map(str),
        "--mass": _numbers(0, 3, "0", "0.5"),
        "--beta": _numbers(0.1, 100, "inf"),
        "--temp": _numbers(0.01, 10, "1"),
        "--eps": _numbers(0.25, 2, "1"),
        "--theta": _numbers(0, 0.99, "0"),
        "--zs": _lists(st.integers(1, 9).map(str)),
        "--betas": _lists(_numbers(0.1, 100, "inf")),
        "--nas": _lists(st.integers(1, n).map(str)),
        "--regime": st.sampled_from(["low", "high"]),
        "--format": st.sampled_from(["csv", "json", "svg"]),
    }
    clean = draw(st.booleans())
    if clean:  # flags of one axis exclude each other: keep one of each group
        for group in (("--z", "--zs"), ("--na", "--nas"), ("--beta", "--temp", "--betas")):
            keep = draw(st.sampled_from(group))
            for flag in group:
                if flag != keep:
                    del in_range[flag]
    argv = [command]
    for flag, valid in in_range.items():
        if flag in COMMAND_FLAGS[command] and draw(st.integers(0, 3)):
            argv += [flag, draw(valid if clean else valid | _JUNK)]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
@example(["sweep", "--n", "20", "--zs", "1", "--betas", "10,inf", "--nas", "4", "--format", "svg"])
@example(["sweep", "--n", "2", "--z", "1", "--na", "1", "--betas", "inf,inf", "--format", "svg"])
@example(["sweep", "--n", "40", "--z", "1", "--betas", "0.5,2", "--na", "4", "--format", "svg"])
# a default beta grid that overflows a float; a Gibbs exponent beta*dE that does
@example(["fit", "--n", "64", "--na", "40", "--z", "300", "--regime", "low"])
@example(["fit", "--n", "64", "--na", "40", "--z", "300", "--regime", "high"])
@example(["oracle-check", "--n", "4", "--na", "2", "--z", "1", "--mass", "0.5", "--beta", "1e308"])
# an N whose N*N overflows an int64: a bare OverflowError before N was bounded
@example(["ee", "--n", "1" + "0" * 30, "--na", "4", "--z", "1"])
def test_any_argv_exits_cleanly(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
