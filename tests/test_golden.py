"""Seeded outputs compared byte for byte with recorded fixtures.

The fixtures under ``tests/data/`` guard rewrites of the walkers, of the
steering loop, of the appendix circle scan, of the ``delta_inband`` grid
predicate and of the exact field arithmetic (``closures.txt`` pins the
order of the exact closures): a faster version must reproduce them bit for
bit.  Regenerate them only on purpose, with ``python tests/test_golden.py``.
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from su2moduli import appendix, classify, orbit_lab, sphere_four
from su2moduli.cli import main
from su2moduli.repfile import format_repfile
from su2moduli.su2 import SurfacePresentation, quat_inv, quat_mul, random_su2

DATA = Path(__file__).parent / "data"


def _inputs() -> dict:
    """Seeded Haar representation files for the t1, s4 and t2 charts."""
    rng = np.random.default_rng(20240)
    X, Y, A, B, C = (random_su2(rng) for _ in range(5))
    K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
    D = quat_inv(quat_mul(quat_mul(A, B), C))
    return {
        "t1.rep": format_repfile(SurfacePresentation(1, 1), [X, Y, K]),
        "s4.rep": format_repfile(SurfacePresentation(0, 4), [A, B, C, D]),
        "t2.rep": format_repfile(SurfacePresentation(1, 2),
                                 [X, Y, A, quat_mul(quat_inv(A), K)]),
    }


def _cli(args) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    assert code == 0, args
    return buf.getvalue()


def _orbit_csv(tmp: Path, chart: str, *extra) -> str:
    out = tmp / f"orbit_{chart}.csv"
    _cli(["orbit", str(DATA / f"{chart}.rep"), "--chart", chart, "--budget", "60",
          "--seed", "7", "--out", str(out), *extra])
    return out.read_text()


def _exact_csv(tmp: Path, handle: str) -> str:
    out = tmp / f"orbit_{handle}.csv"
    orbit_lab.orbit_sample(appendix.GENERATORS[handle], "t1", budget=80,
                           seed=3).to_csv(out)
    return out.read_text()


def _density(chart: str) -> str:
    return _cli(["density", str(DATA / f"{chart}.rep"), "--chart", chart,
                 "--budget", "3000", "--seed", "5", "--eps", "0.25"])


def _steer_t1(target: str) -> str:
    return _cli(["steer", str(DATA / "t1.rep"), "--chart", "t1",
                 f"--target={target}", "--eps", "0.05"])


def _steer_t2() -> str:
    return _cli(["steer", str(DATA / "t2.rep"), "--chart", "t2",
                 "--target=0.5,0.3", "--eps", "0.1"])


def _appendix_solutions() -> str:
    """Every solution and escape trace of the worked cases, as reprs."""
    lines = []
    for r in appendix.verify_all_worked_cases():
        lines.append(r.case_id)
        lines += [f"  solution {tuple(float(v) for v in s)!r}" for s in r.solutions]
        lines += [f"  escape {float(t)!r}" for t in r.escape_traces]
    return "\n".join(lines) + "\n"


def _closures() -> str:
    """Every element of each handle's exact closure, in the returned order."""
    lines = []
    for handle in ("T", "C", "D1", "D2", "D3"):
        lines.append(handle)
        closure = classify.finite_closure(list(appendix.GENERATORS[handle]))
        lines += [f"  {e!r}" for e in closure.elements]
    return "\n".join(lines) + "\n"


#: (a, b, eps) for the delta_inband fixture: eps 0.2 and 0.4 fail at the
#: first halving levels, eps 0.01 makes the finest grids, and |a| or |b|
#: near 2 makes I_{a,b} narrow
DELTA_TRIPLES = (
    (1.0, 0.016, 0.05), (0.3, -0.7, 0.2), (0.3, -0.7, 0.4), (1.999, 0.3, 0.1),
    (0.5, 0.5, 0.01), (1.999, 0.3, 0.01), (0.0, 0.0, 0.05), (0.0, 0.0, 0.4),
    (-1.2, 0.8, 0.05), (-1.2, 0.8, 0.2), (1.5, 1.5, 0.1), (1.5, -1.5, 0.4),
    (-1.98, 1.97, 0.05), (0.2, -1.995, 0.05), (1.9999, 1.9999, 0.1),
    (-1.9999, 0.5, 0.2), (0.9, -0.1, 0.1), (-0.4, -0.4, 0.2), (1.1, 0.6, 0.4),
    (-0.7, 1.3, 0.05), (0.05, 1.7, 0.1), (1.8, -0.2, 0.2), (-1.6, -1.1, 0.1),
    (0.6, 0.02, 0.01),
)


def _delta_inband() -> str:
    """delta_inband and the grid predicate at its first four halving levels."""
    rows = []
    for a, b, eps in DELTA_TRIPLES:
        top = min(eps, 0.5)
        rows.append({
            "a": a, "b": b, "eps": eps,
            "delta": sphere_four.delta_inband(a, b, eps),
            "verdicts": [sphere_four._inband_predicate(a, b, top / 2 ** k, eps)
                         for k in range(4)],
        })
    return json.dumps(rows, indent=1) + "\n"


#: fixture name -> producer of its text from a scratch directory
FIXTURES = {
    "orbit_t1.csv": lambda tmp: _orbit_csv(tmp, "t1"),
    "orbit_s4.csv": lambda tmp: _orbit_csv(tmp, "s4"),
    "orbit_t2.csv": lambda tmp: _orbit_csv(tmp, "t2"),
    "orbit_t1_bfs.csv": lambda tmp: _orbit_csv(tmp, "t1", "--strategy", "bfs"),
    "orbit_T.csv": lambda tmp: _exact_csv(tmp, "T"),
    "orbit_C.csv": lambda tmp: _exact_csv(tmp, "C"),
    "orbit_D1.csv": lambda tmp: _exact_csv(tmp, "D1"),
    "density_t1.json": lambda tmp: _density("t1"),
    "density_s4.json": lambda tmp: _density("s4"),
    "steer_t1_a.json": lambda tmp: _steer_t1("0.3,-0.5"),
    "steer_t1_b.json": lambda tmp: _steer_t1("0.8,0.1"),
    "steer_t2.json": lambda tmp: _steer_t2(),
    "appendix_solutions.txt": lambda tmp: _appendix_solutions(),
    "closures.txt": lambda tmp: _closures(),
    "delta_inband.json": lambda tmp: _delta_inband(),
}


def test_inputs_are_recorded():
    for name, text in _inputs().items():
        assert (DATA / name).read_text() == text, name


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_output_matches_fixture(name, tmp_path):
    assert FIXTURES[name](tmp_path) == (DATA / name).read_text()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for name, text in _inputs().items():
        (DATA / name).write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in FIXTURES.items():
            (DATA / name).write_text(make(Path(tmp)))
    (DATA / "verify_appendix.txt").write_text(_cli(["verify-appendix"]))
    print(f"wrote {len(FIXTURES) + 4} files to {DATA}", file=sys.stderr)
