"""Command-line front end.

Subcommands:
    ee            entropy of one (N, N_A, z, m, beta) point
    sweep         entropy over a grid of z / beta / N_A values
    fit           low- or high-temperature expansion fit of a sweep
    cmera         export (u, phi, g, g_uu) circuit profiles
    oracle-check  compare lattice correlators/entropy to the brute-force
                  many-body computation on a small chain

Each subcommand accepts only the flags it reads, none by abbreviation,
and only the --format values it writes; main checks the flags it needs
before it runs (see _COMMANDS, whose rows declare all three).
Flags that set the same axis exclude each other (see _EXCLUSIVE_FLAGS):
--z or --zs, --na or --nas, and one of --beta, --temp and --betas.
Options may also come from a config file (``--config``, read as UTF-8)
holding ``key = value`` lines with ``#`` comments, one key per flag name
of the command; the file's values are parsed like flags given ahead of
the command line, so a command-line flag wins over the same key.  Exit
codes: 0 success, 1 computational failure (EechainError, or a
MemoryError from an allocation too large for the machine), 2 usage error
(an unwritable --out or stdout and an unreadable --config among them) or
invalid model parameter.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import cmera as cmera_mod
from .entropy import entanglement_entropy, entropy_of, hermitian_eigenvalues
from .errors import EechainError, InvalidParameter, UsageError
from .lattice import LatticeSpec, build_correlation_matrix, validate_model
from .oracle import many_body_state, mode_correlators, reduced_entropy
from .output import emit_csv, emit_json, emit_plot, emit_table
from .thermal import (
    SweepTable,
    default_high_temperature_betas,
    default_low_temperature_betas,
    fit_high_temperature,
    fit_low_temperature,
    sweep_entropy,
)

CORRELATOR_TOL = 1e-10
ENTROPY_TOL = 1e-8


def _converter(kind, parse):
    """An argparse type= converter.  It checks syntax only: the ranges of
    model parameters are checked where the model is built."""

    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None

    return convert


_integer = _converter("an integer", int)
_number = _converter("a number", float)


def _inverse_temperature(text):
    temp = _number(text)
    if not 0 < temp < math.inf:  # nan fails both
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    beta = 1.0 / temp
    if beta == math.inf:  # TEMP below about 5.6e-309: not the ground state
        raise argparse.ArgumentTypeError(f"must have a finite 1/TEMP, got {text!r}")
    return beta


def _list_of(convert):
    def convert_list(text):
        items = [s.strip() for s in text.split(",") if s.strip()]
        if not items:
            raise argparse.ArgumentTypeError("needs a comma-separated list")
        return tuple(convert(s) for s in items)

    return convert_list


_FLAGS = {  # name: add_argument keywords
    "n": dict(type=_integer),
    "na": dict(type=_integer),
    "z": dict(type=_integer),
    "mass": dict(type=_number, default=0.0),
    # float("inf") is a new object, never the default itself, so
    # "--beta inf" still conflicts with --temp
    "beta": dict(type=_number, default=math.inf),
    "temp": dict(type=_inverse_temperature, dest="beta", metavar="TEMP"),
    "eps": dict(type=_number, dest="epsilon", default=1.0, metavar="EPS"),
    "theta": dict(type=_number, default=0.0),
    "zs": dict(type=_list_of(_integer), default=()),
    "betas": dict(type=_list_of(_number), default=()),
    "nas": dict(type=_list_of(_integer), default=()),
    "regime": dict(choices=("low", "high"), default="low"),
    "format": dict(dest="fmt"),  # choices: _COMMANDS
    "out": dict(),
    "jobs": dict(type=_integer, default=1),
}
_EE_FLAGS = ("n", "na", "z", "mass", "beta", "temp", "eps", "theta", "format", "out")
# flags that set the same axis: a command takes at most one of each
_EXCLUSIVE_FLAGS = (("z", "zs"), ("na", "nas"), ("beta", "temp", "betas"))


def _build_parser():
    """The parser: each command with the flags it reads, and --config."""
    parser = argparse.ArgumentParser(
        prog="eechain",
        description="entanglement entropy of free Lifshitz fermion chains",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, names, formats, _) in _COMMANDS.items():
        p = sub.add_parser(command, description="needs: " + ", ".join(_needs(command)),
                           exit_on_error=False, allow_abbrev=False)
        p.set_defaults(run=run)
        target = {}
        for flags in _EXCLUSIVE_FLAGS:
            read = [name for name in flags if name in names]
            # argparse brackets a group of one, or none, with its neighbours
            if len(read) > 1:
                target.update(dict.fromkeys(read, p.add_mutually_exclusive_group()))
        for name in names:
            options = _FLAGS[name]
            if name == "format":
                options = dict(options, choices=formats)
            target.get(name, p).add_argument(f"--{name}", **options)
        p.add_argument("--config")
    return parser


def _read_config_file(path, command):
    """The file's ``key = value`` lines as ``--key=value`` flags of command."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    flags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _COMMANDS[command][1]:  # the flags command reads
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        flags.append(f"--{key}={value.strip()}")
    return flags


def _parse(argv):
    try:
        return _PARSER.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise UsageError(f"{exc.argument_name} {exc.message}") from None


def parse_config(argv):
    """Parse argv, and the --config file it names, into a namespace.

    The file's values go through the same parser as flags placed between
    the command and the rest of argv, so they are converted and checked
    alike, and the command line wins.
    """
    cfg = _parse(argv)
    if cfg.config is None:
        return cfg
    argv = sys.argv[1:] if argv is None else list(argv)
    flags = _read_config_file(cfg.config, cfg.command)
    return _parse([cfg.command, *flags, *argv[1:]])


def _needs(command):
    """Each flag command needs, as the flags it reads that meet the need:
    the flag itself or any of its _EXCLUSIVE_FLAGS group ("--z or --zs")."""
    _, reads, _, needs = _COMMANDS[command]
    groups = [next((g for g in _EXCLUSIVE_FLAGS if need in g), (need,)) for need in needs]
    return [" or ".join(f"--{name}" for name in group if name in reads) for group in groups]


def _emit(cfg, data):
    out = getattr(cfg, "out", None)  # oracle-check has no --out
    try:
        if out:
            Path(out).write_bytes(data)
        else:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _spec_of(cfg):
    return LatticeSpec(cfg.n, cfg.z, cfg.mass, cfg.epsilon, cfg.theta)


def _run_ee(cfg):
    point = entropy_of(_spec_of(cfg), cfg.beta, range(cfg.na))
    if cfg.fmt is None:
        _emit(cfg, f"{point.entropy:.12g}\n".encode())
    else:
        _emit(cfg, emit_table(SweepTable(rows=(point,)), cfg.fmt))
    return 0


def _sweep(cfg, zs, betas, nas):
    return sweep_entropy(
        zs,
        betas,
        nas,
        n_sites=cfg.n,
        mass=cfg.mass,
        spacing=cfg.epsilon,
        boundary_phase=cfg.theta,
        jobs=cfg.jobs,
    )


def _run_sweep(cfg):
    zs, betas, nas = cfg.zs or (cfg.z,), cfg.betas or (cfg.beta,), cfg.nas or (cfg.na,)
    table = _sweep(cfg, zs, betas, nas)
    fmt = cfg.fmt or "csv"
    _emit(cfg, _sweep_plot(table, zs, betas, nas) if fmt == "svg" else emit_table(table, fmt))
    return 0


def _sweep_plot(table, zs, betas, nas):
    # repeated axis values repeat rows: the plot follows the distinct ones
    rows = tuple(dict.fromkeys(table.rows))
    zs, betas, nas = (tuple(dict.fromkeys(axis)) for axis in (zs, betas, nas))
    if len(nas) < 2 and len(betas) < 2:
        if len(zs) < 2:
            raise UsageError("an svg sweep needs an axis with two distinct values")
        pts = sorted((r.z, r.entropy) for r in rows)
        smax = 2 * nas[0] * math.log(2)
        series = [([p[0] for p in pts], [p[1] for p in pts], "S(z)")]
        meta = {
            "xlabel": "z",
            "ylabel": "S",
            "title": "S vs z",
            "hlines": [(smax, "2 N_A ln 2")],
        }
        return emit_plot(series, meta)
    # x is N_A or log10(beta), with one series per z and value of the other
    # axis; points at beta = inf (the ground state) are drawn as lines
    x, xlabel, other, values = (
        ("na", "N_A", "beta", betas) if len(nas) > 1 else ("beta", "beta", "na", nas)
    )
    if x == "beta" and sum(map(math.isfinite, betas)) < 2:
        raise UsageError("an svg sweep over beta needs two finite betas")
    series, hlines = [], {}
    for z in zs:
        for value in values:
            pts = sorted(
                (getattr(r, x), r.entropy) for r in rows if (r.z, getattr(r, other)) == (z, value)
            )
            label = f"z={z}" + (f" b={value:g}" if x == "na" and len(betas) > 1 else "")
            finite = [p for p in pts if math.isfinite(p[0])]
            series.append(([p[0] for p in finite], [p[1] for p in finite], label))
            hlines.update({(s, f"{label} b=inf"): None for b, s in pts if math.isinf(b)})
    meta = {
        "xlabel": xlabel,
        "ylabel": "S",
        "xscale": "log",
        "title": f"S vs {xlabel}",
        "hlines": list(hlines),
    }
    return emit_plot(series, meta)


def _run_fit(cfg):
    low = cfg.regime == "low"
    default_betas = default_low_temperature_betas if low else default_high_temperature_betas
    betas = cfg.betas or default_betas(cfg.z, cfg.na, cfg.epsilon)
    table = _sweep(cfg, (cfg.z,), tuple(betas), (cfg.na,))
    # named at call time, so a wrapper set on this module (perfbench's tracer) sees the fit
    fit = (fit_low_temperature if low else fit_high_temperature)(table, cfg.z)
    if cfg.fmt == "json":
        payload = {"regime": cfg.regime, "z": cfg.z, **dataclasses.asdict(fit)}
        _emit(cfg, emit_json(payload))
        return 0
    lines = [f"regime: {cfg.regime}   z: {cfg.z}   rows: {fit.n_rows}"]
    for name, coef, se in zip(fit.basis, fit.coefficients, fit.std_errors):
        lines.append(f"  coeff[{name}] = {coef:+.6g} +/- {se:.3g}")
    lines.append(f"  residual rms = {fit.residual_rms:.6g}")
    _emit(cfg, ("\n".join(lines) + "\n").encode())
    return 0


def _run_cmera(cfg):
    cfg.z, cfg.mass, cfg.epsilon = validate_model(cfg.z, cfg.mass, cfg.epsilon)
    cutoff = 1.0 / cfg.epsilon
    u = np.linspace(-5.0, 0.0, 501)
    k = cutoff * np.exp(u)
    phi = cmera_mod.bogoliubov_angle(k, cfg.z, cfg.mass)
    g = cmera_mod.g_closed_form(u, cfg.z, cfg.mass, cutoff)
    guu = cmera_mod.metric_guu(u, cfg.z, cfg.mass, cutoff)
    columns = ("u", "phi", "g", "guu")
    rows = zip(u, phi, g, guu)
    fmt = cfg.fmt or "csv"
    if fmt == "csv":
        _emit(cfg, emit_csv(",".join(columns), rows))
    elif fmt == "json":
        _emit(cfg, emit_json([dict(zip(columns, map(float, row))) for row in rows]))
    else:
        meta = {"xlabel": "u", "ylabel": "profile", "title": f"cMERA z={cfg.z}"}
        _emit(cfg, emit_plot([(u, phi, "phi"), (u, g, "g"), (u, guu, "g_uu")], meta))
    return 0


def _run_oracle_check(cfg):
    spec = _spec_of(cfg)
    state = many_body_state(spec, cfg.beta)
    corr = build_correlation_matrix(spec, cfg.beta, range(cfg.n))
    corr_diff = float(np.abs(mode_correlators(state) - corr.entries).max())

    s_exact = reduced_entropy(state, range(cfg.na))  # checks N_A against N
    s_fast = entanglement_entropy(hermitian_eigenvalues(corr._leading(cfg.na)))
    s_diff = abs(s_exact - s_fast)

    corr_ok = corr_diff <= CORRELATOR_TOL
    s_ok = s_diff <= ENTROPY_TOL
    _emit(cfg, (
        f"correlators: max|fast - oracle| = {corr_diff:.3e} "
        f"(tol {CORRELATOR_TOL:g}) {'OK' if corr_ok else 'FAIL'}\n"
        f"entropy: fast = {s_fast:.12g}  oracle = {s_exact:.12g}  "
        f"diff = {s_diff:.3e} (tol {ENTROPY_TOL:g}) {'OK' if s_ok else 'FAIL'}\n"
    ).encode())
    return 0 if (corr_ok and s_ok) else 1


# command: (handler, the flags it reads and its config-file keys, the
# --format values it writes, the flags it needs in the order main checks
# them); every command also takes --config
_COMMANDS = {
    "ee": (_run_ee, _EE_FLAGS, ("csv", "json"), ("n", "na", "z")),
    "sweep": (_run_sweep, (*_EE_FLAGS, "zs", "betas", "nas", "jobs"), ("csv", "json", "svg"),
              ("n", "z", "na")),
    "fit": (_run_fit, ("n", "na", "z", "mass", "eps", "theta", "betas", "regime", "format",
                       "out", "jobs"), ("json",), ("n", "na", "z")),
    "cmera": (_run_cmera, ("z", "mass", "eps", "format", "out"), ("csv", "json", "svg"), ("z",)),
    "oracle-check": (_run_oracle_check, ("n", "na", "z", "mass", "beta", "temp", "eps",
                                         "theta"), (), ("n", "na", "z")),
}
_PARSER = _build_parser()


def main(argv=None):
    try:
        cfg = parse_config(argv)
        for need in _needs(cfg.command):  # a flag is given unless None or ()
            if all(getattr(cfg, flag[2:]) in (None, ()) for flag in need.split(" or ")):
                raise UsageError(f"{cfg.command} requires {need}")
        return cfg.run(cfg)
    except (UsageError, InvalidParameter) as exc:
        print(f"eechain: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except (EechainError, MemoryError) as exc:  # numpy raises a private subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"eechain: {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
