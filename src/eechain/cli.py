"""Command-line front end.

Subcommands:
    ee            entropy of one (N, N_A, z, m, beta) point
    sweep         entropy over a grid of z / beta / N_A values
    fit           low- or high-temperature expansion fit of a sweep
    cmera         export (u, phi, g, g_uu) circuit profiles
    oracle-check  compare lattice correlators/entropy to the brute-force
                  many-body computation on a small chain

Each subcommand accepts only the flags it reads (see _COMMAND_FLAGS), and
none by abbreviation.  Options may also come from a config file
(``--config``) holding ``key = value`` lines with ``#`` comments, one key
per flag name of the command; the file's values are parsed like flags
given ahead of the command line, so command-line flags win.  Exit codes:
0 success, 1 computational failure (EechainError), 2 usage error or
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
from .blas import one_blas_thread
from .entropy import entanglement_entropy, entropy_of
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
    if temp <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return 1.0 / temp


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
    "format": dict(choices=("csv", "json", "svg"), dest="fmt"),
    "out": dict(),
    "jobs": dict(type=_integer, default=1),
}
_EE_FLAGS = ("n", "na", "z", "mass", "beta", "temp", "eps", "theta", "format", "out")
# the flags each command reads, and its config-file keys; all take --config
_COMMAND_FLAGS = {
    "ee": _EE_FLAGS,
    "sweep": (*_EE_FLAGS, "zs", "betas", "nas", "jobs"),
    "fit": ("n", "na", "z", "mass", "eps", "theta", "betas", "regime", "format",
            "out", "jobs"),
    "cmera": ("z", "mass", "eps", "format", "out"),
    "oracle-check": ("n", "na", "z", "mass", "beta", "temp", "eps", "theta"),
}


def _build_parser():
    """The parser: each command with the flags it reads, and --config."""
    parser = argparse.ArgumentParser(
        prog="eechain",
        description="entanglement entropy of free Lifshitz fermion chains",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, exit_on_error=False, allow_abbrev=False)
        group = p.add_mutually_exclusive_group()
        for name in names:
            target = group if name in ("beta", "temp") else p
            target.add_argument(f"--{name}", **_FLAGS[name])
        p.add_argument("--config")
    return parser


_PARSER = _build_parser()


def _read_config_file(path, command):
    """The file's ``key = value`` lines as ``--key=value`` flags of command."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
        if key not in _COMMAND_FLAGS[command]:
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


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"{cfg.command} requires --{name}")


def _emit(cfg, data):
    if cfg.out:
        Path(cfg.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _spec_of(cfg):
    return LatticeSpec(
        n_sites=cfg.n,
        z_exponent=cfg.z,
        mass=cfg.mass,
        spacing=cfg.epsilon,
        boundary_phase=cfg.theta,
    )


def _run_ee(cfg):
    _require(cfg, "n", "na", "z")
    point = entropy_of(_spec_of(cfg), cfg.beta, range(cfg.na))
    if cfg.fmt is None:
        print(f"{point.entropy:.12g}")
        return 0
    if cfg.fmt == "svg":
        raise UsageError("ee has a single value; svg output needs sweep")
    _emit(cfg, emit_table(SweepTable(rows=(point,)), cfg.fmt))
    return 0


def _sweep_axes(cfg):
    zs = cfg.zs or ((cfg.z,) if cfg.z is not None else ())
    betas = cfg.betas or (cfg.beta,)
    nas = cfg.nas or ((cfg.na,) if cfg.na is not None else ())
    if not zs:
        raise UsageError("sweep requires --z or --zs")
    if not nas:
        raise UsageError("sweep requires --na or --nas")
    return zs, betas, nas


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
    _require(cfg, "n")
    zs, betas, nas = _sweep_axes(cfg)
    table = _sweep(cfg, zs, betas, nas)
    fmt = cfg.fmt or "csv"
    if fmt == "svg":
        _emit(cfg, _sweep_plot(table, zs, betas, nas))
        return 0
    _emit(cfg, emit_table(table, fmt))
    return 0


def _sweep_plot(table, zs, betas, nas):
    # repeated axis values repeat rows: the plot follows the distinct ones
    rows = tuple(dict.fromkeys(table.rows))
    zs, betas, nas = (tuple(dict.fromkeys(axis)) for axis in (zs, betas, nas))
    if len(nas) > 1:
        series = []
        for z in zs:
            for beta in betas:
                pts = [(r.na, r.entropy) for r in rows if r.z == z and r.beta == beta]
                pts.sort()
                lbl = f"z={z}" + ("" if len(betas) == 1 else f" b={beta:g}")
                series.append(([p[0] for p in pts], [p[1] for p in pts], lbl))
        meta = {"xlabel": "N_A", "ylabel": "S", "xscale": "log", "title": "S vs N_A"}
    elif len(betas) > 1:
        # the x axis is log10(beta): the ground state is drawn as a line
        if sum(map(math.isfinite, betas)) < 2:
            raise UsageError("an svg sweep over beta needs two finite betas")
        series, hlines = [], {}
        for z in zs:
            for na in nas:
                pts = sorted((r.beta, r.entropy) for r in rows if r.z == z and r.na == na)
                finite = [p for p in pts if math.isfinite(p[0])]
                series.append(([p[0] for p in finite], [p[1] for p in finite], f"z={z}"))
                hlines.update({(s, f"z={z} b=inf"): None for b, s in pts if math.isinf(b)})
        meta = {
            "xlabel": "beta",
            "ylabel": "S",
            "xscale": "log",
            "title": "S vs beta",
            "hlines": list(hlines),
        }
    else:
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


def _run_fit(cfg):
    _require(cfg, "n", "na", "z")
    if cfg.betas:
        betas = cfg.betas
    elif cfg.regime == "low":
        betas = default_low_temperature_betas(cfg.z, cfg.na, cfg.epsilon)
    else:
        betas = default_high_temperature_betas(cfg.z, cfg.na, cfg.epsilon)
    table = _sweep(cfg, (cfg.z,), tuple(betas), (cfg.na,))
    if cfg.regime == "low":
        fit = fit_low_temperature(table, cfg.z)
    else:
        fit = fit_high_temperature(table, cfg.z)
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
    _require(cfg, "z")
    validate_model(cfg.z, cfg.mass, cfg.epsilon)
    cutoff = 1.0 / cfg.epsilon
    u = np.linspace(-5.0, 0.0, 501)
    k = cutoff * np.exp(u)
    phi = cmera_mod.bogoliubov_angle(k, cfg.z, cfg.mass)
    g = cmera_mod.g_closed_form(u, cfg.z, cfg.mass, cutoff)
    guu = cmera_mod.metric_guu(u, cfg.z, cfg.mass, cutoff)
    fmt = cfg.fmt or "csv"
    if fmt == "csv":
        _emit(cfg, emit_csv("u,phi,g,guu", zip(u, phi, g, guu)))
    elif fmt == "json":
        payload = [
            {"u": float(a), "phi": float(b), "g": float(c), "guu": float(d)}
            for a, b, c, d in zip(u, phi, g, guu)
        ]
        _emit(cfg, emit_json(payload))
    else:
        data = emit_plot(
            [(u, phi, "phi"), (u, g, "g"), (u, guu, "g_uu")],
            {"xlabel": "u", "ylabel": "profile", "title": f"cMERA z={cfg.z}"},
        )
        _emit(cfg, data)
    return 0


def _run_oracle_check(cfg):
    _require(cfg, "n", "na", "z")
    spec = _spec_of(cfg)
    # the oracle's eigensolves on one BLAS thread too: the printed round-off
    # then does not depend on the core count
    with one_blas_thread():
        state = many_body_state(spec, cfg.beta)
        corr_exact = mode_correlators(state)
        corr_fast = build_correlation_matrix(spec, cfg.beta, range(cfg.n)).entries
        corr_diff = float(np.abs(corr_exact - corr_fast).max())

        s_exact = reduced_entropy(state, range(cfg.na))
        s_fast = entanglement_entropy(
            build_correlation_matrix(spec, cfg.beta, range(cfg.na))
        )
    s_diff = abs(s_exact - s_fast)

    corr_ok = corr_diff <= CORRELATOR_TOL
    s_ok = s_diff <= ENTROPY_TOL
    print(
        f"correlators: max|fast - oracle| = {corr_diff:.3e} "
        f"(tol {CORRELATOR_TOL:g}) {'OK' if corr_ok else 'FAIL'}"
    )
    print(
        f"entropy: fast = {s_fast:.12g}  oracle = {s_exact:.12g}  "
        f"diff = {s_diff:.3e} (tol {ENTROPY_TOL:g}) {'OK' if s_ok else 'FAIL'}"
    )
    return 0 if (corr_ok and s_ok) else 1


_DISPATCH = {
    "ee": _run_ee,
    "sweep": _run_sweep,
    "fit": _run_fit,
    "cmera": _run_cmera,
    "oracle-check": _run_oracle_check,
}


def main(argv=None):
    try:
        cfg = parse_config(argv)
        return _DISPATCH[cfg.command](cfg)
    except (UsageError, InvalidParameter) as exc:
        print(f"eechain: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except EechainError as exc:
        print(f"eechain: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
