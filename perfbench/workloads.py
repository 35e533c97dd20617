"""Workload generators, executors and output checks for the eechain benchmark.

A workload is an endless sequence of *cycles*.  Each cycle is a fixed design
(how many ops of each kind, which size strata) filled in with parameters drawn
from the seed.  Runs stop only at cycle boundaries, so every run of a workload
has the same mix of op kinds and sizes whatever the seed; the seed changes the
concrete values.  That keeps the quantiles of op time comparable from seed to
seed while the program still sees fresh inputs.

The program is driven only through its public entry points: ``entropy_of``
for the point workloads and in-process ``eechain.cli.main`` for the others.
Both are looked up on their modules at call time so that the traced run can
wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("large_chain", "cli_mix")

# Absolute slack on the saturation bounds [0, 2 N_A ln 2].
ENTROPY_SLACK = 1e-9
# A fit reports the rows of its beta grid that fell in its window; eechain
# refuses a fit on fewer than eight.
MIN_FIT_ROWS = 8

# 5-smooth chain lengths in [1e5, 1e6]: at most 2.9% apart.  numpy's FFT
# takes its fast path on these.
_SMOOTH_LENGTHS = sorted(
    2**a * 3**b * 5**c
    for a in range(21)
    for b in range(13)
    for c in range(9)
    if 100_000 <= 2**a * 3**b * 5**c <= 1_000_000
)


@dataclass(frozen=True)
class Op:
    """One call into eechain.

    kind   'point' (``entropy_of``) or 'cli' (``cli.main``).
    args   point: (n, na, z, mass, beta, theta); cli: the argv tuple, where
           the literal '{out}' stands for a file in the run's scratch dir.
    check  which output check applies (see ``check_output``).
    points entropy values (or oracle checks) the op delivers.
    model  (n, na, z, mass, beta) of the single entropy value an op prints,
           for 'point' and plain 'ee' ops; () otherwise.
    """

    kind: str
    args: tuple
    check: str
    points: int
    model: tuple = ()


class OpFailed(Exception):
    """An op's output failed its check."""


# ------------------------------------------------------------------ drawing


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _snap_smooth(n):
    return min(_SMOOTH_LENGTHS, key=lambda s: abs(s - n))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _next_prime(n):
    """The least prime >= n.  A prime length sends numpy's FFT down its
    Bluestein path, about 2.5x slower than a 5-smooth length of that size."""
    n = int(n)
    while not _is_prime(n):
        n += 1
    return n


def _fmt_beta(beta):
    return "inf" if math.isinf(beta) else f"{beta:.6g}"


# The 8 combinations of (massive, thermal, twisted), ordered so that every
# prefix of even length is balanced in mass and the prefix of 4 in all three.
_COMBOS = [(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 0)]


def _model(rng, massive, thermal, twisted):
    """(mass, beta, theta) for one combination of the three flags."""
    mass = round(_log_uniform(rng, 0.01, 1.0), 6) if massive else 0.0
    beta = float(f"{_log_uniform(rng, 10.0, 1000.0):.6g}") if thermal else math.inf
    theta = round(rng.uniform(0.05, 0.95), 6) if twisted else 0.0
    return mass, beta, theta


def _model_mix(rng, k):
    """k (mass, beta, theta) triples in random order, with a fixed number of
    each combination of massless/massive, ground/thermal and
    untwisted/twisted."""
    flags = (_COMBOS * (k // 8 + 1))[:k]
    rng.shuffle(flags)
    return [_model(rng, *f) for f in flags]


def _point_ops(rng, lo, hi, size_of, per_combo, cycle):
    """entropy_of points: each of the 8 model combinations at per_combo
    distinct z in 1..5.  The size axis [lo, hi) is cut into 8 * per_combo
    strata and every combination gets every 8th one, so each spans the
    whole range.  The combinations take their strata in the fixed order of
    _COMBOS, so massless and massive points (one FFT against two)
    alternate along the size axis whatever the seed.  Which z a stratum
    gets turns with the cycle number, not with the seed: an even-z
    massless ground state skips the FFT, so a drawn z would make the cost
    of the largest points depend on the seed.  The last stratum's point
    sits at hi itself, so that the largest arrays, and with them peak
    memory, are the same for every seed."""
    strata = 8 * per_combo
    ops = []
    for offset, flags in enumerate(_COMBOS):
        for j in range(per_combo):
            z = (j + cycle) % 5 + 1
            top = offset == 7 and j == per_combo - 1
            size = lo + (hi - lo) * (offset + 8 * j + (1.0 if top else rng.random())) / strata
            n, na = size_of(rng, size)
            mass, beta, theta = _model(rng, *flags)
            model = (n, na, z, mass, beta)
            ops.append(Op("point", (n, na, z, mass, beta, theta), "point", 1, model))
    return ops


def _large_chain_cycle(rng, cycle):
    """56 points: 40 at 5-smooth lengths (every combination at every z) and
    16 at prime lengths (every combination at two z).  N is log-uniform in
    [1e5, 1e6], so op times spread evenly over a decade.  A prime length
    costs about twice the smooth one of its size."""
    lo, hi = math.log(100_000), math.log(1_000_000)
    ops = _point_ops(
        rng, lo, hi, lambda r, size: (_snap_smooth(math.exp(size)), r.randint(16, 64)), 5, cycle
    )
    ops += _point_ops(
        rng, lo, hi, lambda r, size: (_next_prime(math.exp(size)), r.randint(16, 64)), 2, cycle
    )
    rng.shuffle(ops)
    return ops


def _model_flags(mass, beta, theta):
    flags = ["--mass", f"{mass:g}", "--beta", _fmt_beta(beta)]
    if theta:
        flags += ["--theta", f"{theta:g}"]
    return flags


def _ee_ops(rng, k, na_lo, na_hi):
    """k ee calls at N=2000, one N_A from each of k equal strata of
    [na_lo, na_hi].  The last is na_hi itself, so that the largest matrix,
    and with it peak memory, is the same for every seed."""
    ops = []
    for i, (mass, beta, theta) in enumerate(_model_mix(rng, k)):
        na = na_hi if i == k - 1 else int(na_lo + (na_hi - na_lo + 1) * (i + rng.random()) / k)
        z = rng.randint(1, 5)
        argv = ["ee", "--n", "2000", "--na", str(na), "--z", str(z)]
        argv += _model_flags(mass, beta, theta)
        fmt = ("plain", "csv", "plain", "json")[i % 4]
        if fmt == "plain":
            ops.append(Op("cli", tuple(argv), "ee", 1, (2000, na, z, mass, beta)))
        else:
            argv += ["--format", fmt, "--out", "{out}"]
            ops.append(Op("cli", tuple(argv), "table", 1))
    return ops


def _cmera_ops(rng, k):
    ops = []
    for i in range(k):
        z = rng.randint(1, 5)
        mass = 0.0 if i % 2 == 0 else round(_log_uniform(rng, 0.05, 2.0), 6)
        fmt = ("csv", "json", "svg", "csv")[i % 4]
        argv = ["cmera", "--z", str(z), "--mass", f"{mass:g}", "--format", fmt]
        if i != 3:
            argv += ["--out", "{out}"]
        ops.append(Op("cli", tuple(argv), "cmera-" + fmt, 0))
    return ops


def _fit_ops(rng, k):
    """Fits at N=2000 on their default beta grids: 10 points (low regime)
    or 12 (high).  The high regime is reachable there only for z >= 3 with
    N_A >= 40.  N_A stays in [56, 72] so that fits form one cluster of op
    times, between the single points and the sweeps."""
    ops = []
    for i in range(k):
        na = rng.randint(56, 72)
        if i % 2 == 0:
            regime, z, points = "low", rng.randint(1, 5), 10
        else:
            regime, z, points = "high", rng.randint(3, 5), 12
        argv = ["fit", "--n", "2000", "--na", str(na), "--z", str(z), "--regime", regime]
        if i % 3 == 2:
            ops.append(Op("cli", tuple(argv), "fit-text", points))
        else:
            argv += ["--format", "json", "--out", "{out}"]
            ops.append(Op("cli", tuple(argv), "fit-json", points))
    return ops


def _sweep_op(rng, slot, n, n_z, n_beta, n_na, z_range, mass, theta, ground=True):
    """A sweep; with ground, half of them (by draw) include the ground state."""
    zs = sorted(rng.sample(z_range, n_z))
    betas = [math.inf] if ground and rng.random() < 0.5 else []
    while len(betas) < n_beta:
        beta = float(f"{_log_uniform(rng, 10.0, 1000.0):.6g}")
        if beta not in betas:
            betas.append(beta)
    # one N_A from each of n_na equal strata of [4, 121)
    nas = [int(4 + 117 * (j + rng.random()) / n_na) for j in range(n_na)]
    argv = [
        "sweep", "--n", str(n),
        "--zs", ",".join(map(str, zs)),
        "--betas", ",".join(_fmt_beta(b) for b in betas),
        "--nas", ",".join(map(str, nas)),
    ]
    argv += ["--mass", f"{mass:g}"]
    if theta:
        argv += ["--theta", f"{theta:g}"]
    fmt = ("csv", "json", "svg")[slot % 3]
    argv += ["--format", fmt]
    if slot != 0:
        argv += ["--out", "{out}"]
    check = "svg" if fmt == "svg" else "table"
    return Op("cli", tuple(argv), check, n_z * n_beta * n_na)


# Sweep shapes (z values, beta values, N_A values).  At N=2000 each has
# 16-21 points, so these sweeps form one cluster of op times.  At N=1e5
# every point recomputes an O(N log N) profile (~30 ms), so those sweeps
# are smaller; they are the slowest ops but one.  Each has 10 points, so
# the eight form one cluster of op times that holds p90, rather than p90
# falling in a gap between sweeps of different sizes.  They draw z >= 2,
# whose profiles cost the same, are half massless, half massive, and are
# all thermal: an even-z massless ground state skips the FFT, and a draw
# of it would make an op's cost depend on the seed.
_SMALL_N_SHAPES = [(1, 1, 20), (1, 2, 8), (2, 1, 10), (3, 1, 6), (1, 3, 7), (2, 2, 5)]
_LARGE_N_SHAPES = [
    (1, 1, 10, False), (1, 2, 5, False), (2, 1, 5, True), (1, 1, 10, True),
    (2, 1, 5, False), (1, 2, 5, True), (1, 1, 10, False), (2, 1, 5, True),
]


def _oracle_ops(rng, plan):
    """oracle-check calls, one per (N, ground) pair of plan."""
    ops = []
    for n, ground in plan:
        z, na = rng.randint(1, 5), rng.randint(1, n - 1)
        theta = round(rng.uniform(0.05, 0.95), 6) if rng.random() < 0.5 else 0.0
        if ground:  # a unique ground state needs a gap: m > 0
            mass, beta = round(rng.uniform(0.2, 1.5), 6), math.inf
        else:
            mass = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.2, 1.5), 6)
            beta = float(f"{_log_uniform(rng, 0.5, 5.0):.6g}")
        argv = ["oracle-check", "--n", str(n), "--na", str(na), "--z", str(z)]
        argv += _model_flags(mass, beta, theta)
        ops.append(Op("cli", tuple(argv), "oracle", 1))
    return ops


def _cli_mix_cycle(rng, _cycle):
    """70 CLI calls, so that two cycles make the 100 ops of a pass:

    - 21 ee at N_A <= 120 and 8 cmera, the fastest;
    - 12 fits, which hold p50: as many ops are faster as are slower;
    - 4 oracle checks at N=3, 6 sweeps at N=2000, 6 oracle checks at N=4
      (half ground, half Gibbs states) and 4 ee at N_A in [150, 450], the
      eigensolve;
    - 8 sweeps at N=1e5, around p90;
    - one oracle check of a ground state at N=5, the slowest op.

    The ops run in one fixed order of kinds, the same for every seed: glibc
    keeps freed memory depending on the order of large allocations, and a
    drawn order moved peak memory by up to 8% from seed to seed.
    """
    ops = _ee_ops(rng, 21, 8, 120) + _ee_ops(rng, 4, 150, 450)
    ops += _cmera_ops(rng, 8) + _fit_ops(rng, 12)
    for slot, ((n_z, n_beta, n_na), (mass, _, theta)) in enumerate(
        zip(_SMALL_N_SHAPES, _model_mix(rng, len(_SMALL_N_SHAPES)))
    ):
        ops.append(_sweep_op(rng, slot, 2000, n_z, n_beta, n_na, range(1, 6), mass, theta))
    for slot, (n_z, n_beta, n_na, massive) in enumerate(_LARGE_N_SHAPES):
        mass = round(_log_uniform(rng, 0.01, 1.0), 6) if massive else 0.0
        theta = round(rng.uniform(0.05, 0.95), 6) if slot % 2 else 0.0
        ops.append(
            _sweep_op(rng, slot, 100_000, n_z, n_beta, n_na, range(2, 6), mass, theta, False)
        )
    plan = [(3, i % 2 == 0) for i in range(4)] + [(4, i % 2 == 0) for i in range(6)]
    ops += _oracle_ops(rng, plan + [(5, True)])
    random.Random(0).shuffle(ops)
    return ops


_CYCLES = {
    "large_chain": _large_chain_cycle,
    "cli_mix": _cli_mix_cycle,
}


def op_stream(workload, seed):
    """The endless, seed-determined op sequence of a workload, one cycle
    (a list of ops) at a time."""
    rng = random.Random(f"eechain-perfbench/{workload}/{seed}")
    make = _CYCLES[workload]
    for cycle in itertools.count():
        yield make(rng, cycle)


# ---------------------------------------------------------------- executing


class Executor:
    """Runs ops against an imported eechain and checks their outputs.

    scratch is a directory the CLI's ``--out`` files go to; each is read
    back and removed after its check.
    """

    def __init__(self, eechain, scratch: Path):
        self.eechain = eechain
        self.cli = eechain.cli
        self.scratch = scratch
        self._serial = 0

    def run(self, op):
        """Execute one op; return its wall time in seconds.

        Raises OpFailed (or whatever eechain raised) when the op fails.
        """
        if op.kind == "point":
            n, na, z, mass, beta, theta = op.args
            spec = self.eechain.LatticeSpec(
                n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta
            )
            t0 = time.perf_counter()
            point = self.eechain.entropy_of(spec, beta, range(na))
            elapsed = time.perf_counter() - t0
            _check_entropy(point.entropy, *op.model)
            return elapsed

        self._serial += 1
        out_path = self.scratch / f"op{self._serial}.out"
        argv = [str(out_path) if a == "{out}" else a for a in op.args]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            stdout.flush()
        if code != 0:
            raise OpFailed(f"exit {code}: {stderr.getvalue().strip()[:300]}")
        if "{out}" in op.args:
            data = out_path.read_bytes()
            out_path.unlink()
        else:
            data = stdout.buffer.getvalue()
        check_output(self.eechain, op, data)
        return elapsed


def _check_entropy(value, n, na, z, mass, beta):
    if not math.isfinite(value):
        raise OpFailed(f"non-finite entropy {value!r}")
    if not -ENTROPY_SLACK <= value <= 2 * na * math.log(2) + ENTROPY_SLACK:
        raise OpFailed(f"entropy {value!r} outside [0, 2*{na}*ln 2]")
    if z % 2 == 0 and mass == 0 and math.isinf(beta) and value != 0.0:
        raise OpFailed(f"even-z massless ground state gave {value!r}, not 0")


def check_output(eechain, op, data):
    """Check the bytes a CLI op produced; raise OpFailed when they are wrong."""
    text = data.decode()
    if op.check == "ee":
        _check_entropy(float(text), *op.model)
    elif op.check == "table":
        try:
            table = eechain.parse_table(data)
        except eechain.EechainError as exc:
            raise OpFailed(f"output does not parse back: {exc}") from None
        if len(table.rows) != op.points:
            raise OpFailed(f"{len(table.rows)} rows, expected {op.points}")
        for r in table.rows:
            _check_entropy(r.entropy, r.n, r.na, r.z, r.mass, r.beta)
    elif op.check in ("svg", "cmera-svg"):
        if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
            raise OpFailed("output is not a complete SVG document")
        if "<polyline " not in text:
            raise OpFailed("SVG has no series")
    elif op.check == "fit-json":
        fit = json.loads(text)
        values = fit["coefficients"] + fit["std_errors"] + [fit["residual_rms"]]
        if not MIN_FIT_ROWS <= fit["n_rows"] <= op.points or not all(
            math.isfinite(v) for v in values
        ):
            raise OpFailed(f"bad fit: {text[:200]}")
    elif op.check == "fit-text":
        lines = text.splitlines()
        if not lines[0].startswith("regime:") or len(lines) < 5:
            raise OpFailed(f"bad fit report: {text[:200]}")
        if not all(math.isfinite(float(ln.split()[2])) for ln in lines[1:-1]):
            raise OpFailed(f"non-finite fit coefficient: {text[:200]}")
    elif op.check == "cmera-csv":
        lines = text.splitlines()
        if lines[0] != "u,phi,g,guu" or len(lines) != 502:
            raise OpFailed("bad cmera CSV shape")
        if not all(math.isfinite(float(v)) for ln in lines[1:] for v in ln.split(",")):
            raise OpFailed("non-finite value in cmera CSV")
    elif op.check == "cmera-json":
        rows = json.loads(text)
        if len(rows) != 501 or not all(math.isfinite(v) for r in rows for v in r.values()):
            raise OpFailed("bad cmera JSON")
    elif op.check == "oracle":
        if "FAIL" in text or text.count(" OK") != 2:
            raise OpFailed(f"oracle-check: {text.strip()}")
    else:
        raise ValueError(f"unknown check {op.check!r}")
