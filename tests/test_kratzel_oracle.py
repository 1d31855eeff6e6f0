"""The Kraetzel function at general rho against a table of mpmath values:
1,000 seeded points (rho, nu, t), rho log-uniform in [0.05, 50], nu uniform
in [-10, 30] and t log-uniform in [1e-8, 1e6], with ``oracles.kratzel_mpmath``
(30 digits) at each, as ``float.hex`` strings in
``data/kratzel_oracle.json``.  The table is written only by this file's
generator, ``PYTHONPATH=src python tests/test_kratzel_oracle.py`` (about
4 minutes)."""
import json
import math
import random
import sys
from pathlib import Path

from regcoulomb import kratzel_z
from regcoulomb.errors import NumericalError

DATA = Path(__file__).parent / "data" / "kratzel_oracle.json"

# the worst relative error on these points of the sum that halved its step
# until two levels agreed (at rho = 29.33, nu = -1.130, t = 2.489e-8), which
# the one pass on a step fixed in advance replaced
HALVING_WORST = 5.723069953435157e-13


def _points():
    rng = random.Random(2026)
    points = []
    for _ in range(1000):
        rho = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        nu = rng.uniform(-10.0, 30.0)
        t = math.exp(rng.uniform(math.log(1e-8), math.log(1e6)))
        points.append((rho, nu, t))
    return points


def test_general_rho_matches_the_oracle_table():
    # a value within 1e-12, or, where Z leaves the double range, 0.0 (or a
    # subnormal) below it and NumericalError above it
    rows = json.loads(DATA.read_text())
    assert [row[:3] for row in rows] == [[v.hex() for v in point] for point in _points()]
    worst = 0.0
    for row in rows:
        rho, nu, t, want = map(float.fromhex, row)
        try:
            got = kratzel_z(rho, nu, t)
        except NumericalError:
            assert want == math.inf, row
            continue
        if want < sys.float_info.min:
            assert got < sys.float_info.min, row
            continue
        error = abs(got - want) / want
        assert error <= 1e-12, row
        worst = max(worst, error)
    assert worst <= HALVING_WORST


if __name__ == "__main__":
    from oracles import kratzel_mpmath

    DATA.write_text("[\n" + ",\n".join(
        json.dumps([rho.hex(), nu.hex(), t.hex(), kratzel_mpmath(rho, nu, t).hex()])
        for rho, nu, t in _points()) + "\n]\n")
