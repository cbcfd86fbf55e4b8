"""The input contract of `spec run`, checked on seeded random entries.

A seeded stdlib-random generator builds one-entry configs for the three
families, their numbers drawn partly from the edges of the float range
(MAGNITUDES), and runs run_config in process with RuntimeWarning as an
error.  The contract: either the entry's report and CSV are written and
the exit is 0 or 1, or the exit is 2 or 3 with exactly one `error:` line
and nothing written.  Nothing else may happen: no traceback, no numpy
warning.

Grids stay small (at most 201 points, 512 angles), Jacobi and CMV patch
sites near 0, and a Schrodinger patch within two periods: the cost of a
report grows with the patch's distance in periods (ROADMAP item 22), which
is no part of this contract.
"""

import json
import math
import random

import pytest

from acspectra.harness_cli import run_config

MAGNITUDES = (1.7e308, 1e300, 1e6, 2.0 ** 320, 2.0 ** -1000, 5e-324, 1e-300)


def _number(rng, lo, hi):
    """A float uniform on [lo, hi], or one time in three a signed magnitude."""
    if rng.random() < 1.0 / 3.0:
        return rng.choice((1.0, -1.0)) * rng.choice(MAGNITUDES)
    return rng.uniform(lo, hi)


def _positive(rng, lo, hi):
    return abs(_number(rng, lo, hi))


def _line_grid(rng):
    start = -_positive(rng, 0.5, 5.0)
    return {"start": start, "stop": _positive(rng, 0.5, 30.0), "points": rng.randint(2, 201)}


def _jacobi(rng):
    period = rng.randint(1, 3)
    d = {"type": "jacobi", "period": period,
         "a": [_positive(rng, 0.5, 1.5) for _ in range(period)],
         "b": [_number(rng, -1.0, 1.0) for _ in range(period)]}
    if rng.random() < 0.5:
        d["patch"] = {str(rng.randint(-3, 3)): [_positive(rng, 0.5, 1.5), _number(rng, -1.0, 1.0)]}
    return d, _line_grid(rng)


def _cmv(rng):
    period = rng.randint(1, 3)

    def alpha():
        r, t = _positive(rng, 0.0, 0.9), rng.uniform(0.0, 2.0 * math.pi)
        return [r * math.cos(t), r * math.sin(t)]
    d = {"type": "cmv", "period": period, "alpha": [alpha() for _ in range(period)]}
    if rng.random() < 0.5:
        d["patch"] = {str(rng.randint(-3, 3)): alpha()}
    return d, {"angles": 512}


def _schrodinger(rng):
    period = rng.choice((1.0, _positive(rng, 0.05, 5.0)))
    weights = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 3))]
    lengths = [period * w / sum(weights) for w in weights]
    if rng.random() < 0.2:      # a subnormal or tiny piece
        lengths.append(rng.choice((5e-324, 1e-300, 2.0 ** -1000)))
    d = {"type": "schrodinger", "period": period,
         "pieces": [[length, _number(rng, -2.0, 6.0)] for length in lengths]}
    if rng.random() < 0.5:
        d["patch"] = [[period * rng.uniform(0.1, 1.0), _number(rng, -2.0, 6.0)]
                      for _ in range(rng.randint(1, 2))]
    return d, _line_grid(rng)


def _entry(rng):
    """One operator entry: a descriptor, its grid and, now and then, a
    target set E, or an unknown operator type."""
    kind = rng.choice(("jacobi", "cmv", "schrodinger"))
    d, grid = {"jacobi": _jacobi, "cmv": _cmv, "schrodinger": _schrodinger}[kind](rng)
    entry = {"name": "x", "descriptor": d, "grid": grid}
    if rng.random() < 0.1:
        lo = grid.get("start", 0.0)
        entry["E"] = {"carrier": "circle" if kind == "cmv" else "line",
                      "intervals": [[lo, lo + _positive(rng, 0.1, 2.0), "cc"]]}
    if rng.random() < 0.03:
        d["type"] = "dirac"
    return entry


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("batch", range(8))
def test_random_entries_keep_the_contract(tmp_path, capsys, batch):
    """25 seeded entries per batch, each in its own config and directory."""
    rng = random.Random(4500 + batch)
    for k in range(25):
        entry = _entry(rng)
        cfg, out = tmp_path / f"c{k}.json", tmp_path / f"out{k}"
        cfg.write_text(json.dumps({"operators": [entry]}), encoding="utf-8")
        code = run_config(str(cfg), str(out))
        err = capsys.readouterr().err
        if code in (0, 1):
            assert err == "" and sorted(p.name for p in out.iterdir()) == ["x.csv",
                                                                           "x_report.json"], entry
        else:
            assert code in (2, 3), (code, entry)
            assert err.startswith("error: ") and err.count("\n") == 1, (err, entry)
            assert not out.exists(), entry
