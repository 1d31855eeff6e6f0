"""Pinned bits of the trapezoid rule: values, error estimates, node counts
and convergence flags of V_q, V_q' and the Tricomi form at seeded points,
as ``float.hex`` strings in ``data/trapezoid_bits.json``.  A change that
moves any of them fails here; a change that means to must regenerate the
file (``PYTHONPATH=src python tests/test_trapezoid_bits.py``) and say why.

Each order's abscissas are checked one column at a time and as one batch,
so the file pins both paths."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import regcoulomb.quadrature as quadrature
from regcoulomb.quadrature import trapezoid_columns

DATA = Path(__file__).parent / "data" / "trapezoid_bits.json"


def _points():
    """32 orders with 10 abscissas each, and 8 Tricomi (a, c) pairs with 8
    arguments each."""
    rng = np.random.default_rng(11)
    orders = ([-0.5, 0.0, 1.0, 170.7] + rng.uniform(-1.0, 12.0, 16).tolist()
              + np.exp(rng.uniform(math.log(12.0), math.log(1100.0), 8)).tolist()
              + (-1.0 + 10.0 ** rng.uniform(-12.0, -1.0, 4)).tolist())
    grids = [np.exp(np.concatenate([rng.uniform(math.log(0.05), math.log(30.0), 6),
                                    rng.uniform(math.log(2e-9), 360.0, 4)])).tolist()
             for _ in orders]
    pairs = [(a, a + rng.uniform(-30.0, 30.0))
             for a in np.exp(rng.uniform(math.log(0.2), math.log(40.0), 8)).tolist()]
    args = [np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 8)).tolist() for _ in pairs]
    return orders, grids, pairs, args


def _record(got, i=0):
    return [float(got.value[i]).hex(), float(got.abs_err[i]).hex(),
            int(got.points[i]), bool(got.converged[i])]


def _laplace(q, xs, prime):
    """The trapezoid columns of V_q (or -V_q') at ``xs`` (an array or an
    np.float64), as ``potential._laplace_integrals`` forms them."""
    with np.errstate(over="ignore"):
        w = xs * xs
    return trapezoid_columns(q + 1.0, -1.5 if prime else -0.5, w, xs if prime else None)


def _tricomi(a, c, ws):
    return trapezoid_columns(a, c - a - 1.0, ws, power=1.0 - c)


def _generate():
    orders, grids, pairs, args = _points()
    out = {"v": [], "v_prime": [], "psi": []}
    for q, xs in zip(orders, grids):
        for key, prime in (("v", False), ("v_prime", True)):
            out[key].append([q.hex(), [[x.hex()] + _record(_laplace(q, np.float64(x), prime))
                                       for x in xs]])
    for (a, c), ws in zip(pairs, args):
        out["psi"].append([a.hex(), c.hex(), [[w.hex()] + _record(_tricomi(a, c, np.float64(w)))
                                              for w in ws]])
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("key, prime", [("v", False), ("v_prime", True)])
def test_laplace_columns_reproduce_the_pinned_bits(pinned, key, prime):
    assert len(pinned[key]) == 32
    for q_hex, rows in pinned[key]:
        q = float.fromhex(q_hex)
        xs = np.array([float.fromhex(row[0]) for row in rows])
        batch = _laplace(q, xs, prime)
        for i, (x, row) in enumerate(zip(xs, rows)):
            assert [x.hex()] + _record(_laplace(q, x, prime)) == row, (q, x)
            assert [x.hex()] + _record(batch, i) == row, (q, x)


def test_tricomi_columns_reproduce_the_pinned_bits(pinned):
    assert len(pinned["psi"]) == 8
    for a_hex, c_hex, rows in pinned["psi"]:
        a, c = float.fromhex(a_hex), float.fromhex(c_hex)
        for row in rows:
            w = np.float64(float.fromhex(row[0]))
            assert [w.hex()] + _record(_tricomi(a, c, w)) == row, (a, c, w)


def test_unconverged_columns_make_no_node_pass(pinned, monkeypatch):
    # the pinned unconverged columns (x beyond 1e150) are not evaluated: no
    # node pass runs, and they keep their pinned bits, 0 with an infinite estimate
    passes, split = [], quadrature._split
    monkeypatch.setattr(quadrature, "_split", lambda *args: passes.append(1) or split(*args))
    unconverged = [(float.fromhex(q_hex), row, prime)
                   for key, prime in (("v", False), ("v_prime", True))
                   for q_hex, rows in pinned[key] for row in rows if not row[4]]
    assert len(unconverged) == 10
    for q, row, prime in unconverged:
        x = np.float64(float.fromhex(row[0]))
        assert [x.hex()] + _record(_laplace(q, x, prime)) == row, (q, x)
        assert row[1:] == ["0x0.0p+0", "inf", 0, False] and not passes, (q, x)


if __name__ == "__main__":
    data = _generate()
    DATA.write_text("{\n" + ",\n".join(
        f'"{key}": [\n' + ",\n".join(json.dumps(group) for group in groups) + "\n]"
        for key, groups in data.items()) + "\n}\n")
