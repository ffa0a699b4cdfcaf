"""Acceptance gate: one check (and one printed pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines.
"""
import json
import math
import time

import numpy as np
import pytest

from su2moduli import appendix, classify, orbit_lab, sphere_four, torus_one
from su2moduli.su2 import float_arithmetic, quat_inv, quat_mul, random_su2
from su2moduli.torus_family import (
    T2Rep,
    apply_twist_word_t2,
    coords_of_rep_t2,
    steer_t2,
)

SQRT2 = math.sqrt(2.0)


def _report(n: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n} failed: {detail}"


# -- 1: coordinate twists agree with matrix twists; k is invariant ----------

def test_criterion_1_twist_agreement():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    arith = float_arithmetic()
    pairs = ((torus_one.tau_x, torus_one.MOVES["X"]),
             (torus_one.tau_y, torus_one.MOVES["Y"]))
    worst_coord = worst_k = 0.0
    for i in range(10 ** 4):
        X, Y = random_su2(rng), random_su2(rng)
        p = torus_one.coords_of_matrices(X, Y)
        tau, tw = pairs[i % 2]
        q = tau(p)
        q_mat = torus_one.coords_of_matrices(*tw((X, Y), arith))
        worst_coord = max(worst_coord,
                          max(abs(a - b) for a, b in zip(q, q_mat)))
        worst_k = max(worst_k, abs(torus_one.k_of(q) - torus_one.k_of(p)))
    dt = time.perf_counter() - t0
    ok = worst_coord < 1e-10 and worst_k < 1e-10 and dt < 5.0
    _report(1, ok, f"(coord {worst_coord:.2e}, k {worst_k:.2e}, {dt:.1f}s)")


# -- 2: level-set anchors and the Pin(2) locus -------------------------------

def test_criterion_2_level_sets():
    ok = torus_one.k_of((0.0, 0.0, 0.0)) == -2.0
    ok &= torus_one.k_of((2.0, 2.0, 2.0)) == 2.0
    for k in np.linspace(-1.9, 1.9, 20):
        pts = torus_one.pin2_locus_points(float(k))
        ok &= len(pts) == 6
        ok &= all(abs(torus_one.k_of(p) - k) < 1e-12 for p in pts)
    _report(2, bool(ok))


# -- 3: special boundary values and exact classification ---------------------

def test_criterion_3_special_set():
    k = torus_one.k_of((1.0, 1.0, 1.0))
    ok = k == 0.0 and torus_one.in_special_set(k)
    verdict = classify.classify_subgroup(list(appendix.GENERATORS["T"]))
    ok &= verdict.in_T and not verdict.is_dense
    _report(3, bool(ok))


# -- 4: four-holed sphere surface equation, centers, trace interval ----------

def _vec_quat_mul(q, p):
    w = q[:, 0] * p[:, 0] - q[:, 1] * p[:, 1] - q[:, 2] * p[:, 2] - q[:, 3] * p[:, 3]
    x = q[:, 0] * p[:, 1] + q[:, 1] * p[:, 0] + q[:, 2] * p[:, 3] - q[:, 3] * p[:, 2]
    y = q[:, 0] * p[:, 2] - q[:, 1] * p[:, 3] + q[:, 2] * p[:, 0] + q[:, 3] * p[:, 1]
    z = q[:, 0] * p[:, 3] + q[:, 1] * p[:, 2] - q[:, 2] * p[:, 1] + q[:, 3] * p[:, 0]
    return np.stack([w, x, y, z], axis=1)


def test_criterion_4_sphere_surface():
    rng = np.random.default_rng(104)
    n = 10 ** 5
    A, B, C = (rng.normal(size=(n, 4)) for _ in range(3))
    for M in (A, B, C):
        M /= np.linalg.norm(M, axis=1, keepdims=True)
    AB = _vec_quat_mul(A, B)
    ABC = _vec_quat_mul(AB, C)
    D = ABC * np.array([1.0, -1.0, -1.0, -1.0])   # (ABC)^-1, unit norm
    a, b, c, d = 2 * A[:, 0], 2 * B[:, 0], 2 * C[:, 0], 2 * D[:, 0]
    x = 2 * AB[:, 0]
    y = 2 * _vec_quat_mul(B, C)[:, 0]
    z = 2 * _vec_quat_mul(C, A)[:, 0]
    res = (x * x + y * y + z * z + x * y * z
           - (a * b + c * d) * x - (b * c + a * d) * y - (a * c + b * d) * z
           - 4.0 + a * a + b * b + c * c + d * d + a * b * c * d)
    worst = float(np.max(np.abs(res)))
    ok = worst < 1e-9

    for aa, bb in ((0.7, -0.3), (1.5, 1.5), (-1.0, 0.2)):
        kappa = sphere_four.Kappa4(aa, bb, 0.0, 0.0)
        for xv in (-1.0, 0.25, 1.4):
            yc, zc = sphere_four.x_level_ellipse(kappa, xv).center
            ok &= abs(yc) < 1e-14 and abs(zc) < 1e-14

    for xv in (-1.7, 0.0, 1.2, 2.0):
        lo, hi = sphere_four.trace_interval(xv, xv)
        ok &= abs(lo - (xv * xv - 2.0)) < 1e-14 and hi == 2.0
    _report(4, bool(ok), f"(surface residual {worst:.2e})")


# -- 5: rotation filtration sets ---------------------------------------------

def test_criterion_5_filtration():
    fm = sphere_four.filtration_member
    ok = fm(0.0, 2) and not any(fm(t, 2) for t in (1.0, -1.0, SQRT2))
    ok &= all(fm(t, 3) for t in (0.0, 1.0, -1.0))
    ok &= not fm(SQRT2, 3) and not fm(-SQRT2, 3)
    ok &= all(fm(t, 4) for t in (0.0, 1.0, -1.0, SQRT2, -SQRT2))
    ok &= not fm(2.0 * math.cos(math.pi / 5.0), 4)
    _report(5, bool(ok))


# -- 6: exact closures and the worked finite-image cases ---------------------

def test_criterion_6_worked_cases():
    t0 = time.perf_counter()
    ok = (len(appendix.enumerate_group("T")) == 24
          and len(appendix.enumerate_group("C")) == 48
          and all(len(appendix.enumerate_group(g)) == 120
                  for g in ("D1", "D2", "D3")))
    reports = {r.case_id: r for r in appendix.verify_all_worked_cases()}
    ok &= all(r.passed for r in reports.values())
    r = reports["T-pin-allzero"]
    ok &= sorted(r.escape_traces) == pytest.approx([-SQRT2, SQRT2], abs=1e-12)
    r = reports["C-spin-C"]
    ok &= any(tuple(round(v, 12) for v in s) == (0.5, -0.5, -0.5, 0.5)
              for s in r.solutions)
    r = reports["C-pin-escape"]
    half_root = math.sqrt(-11.0 + 8.0 * SQRT2) / 2.0
    ok &= sorted(r.escape_traces) == pytest.approx(
        [1.5 - half_root, 1.5 + half_root], abs=1e-12)
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _report(6, bool(ok), f"({dt:.1f}s)")


# -- 7: orbit density, generic vs finite-image handle ------------------------

def test_criterion_7_orbit_density():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    generic = (random_su2(rng), random_su2(rng))
    s = orbit_lab.orbit_sample(generic, "t1", budget=10 ** 6, seed=0)
    dense = orbit_lab.density_report(s, [(-2, 2)] * 3, eps=0.1)

    ico = appendix.GENERATORS["D1"]
    s2 = orbit_lab.orbit_sample(ico, "t1", budget=10 ** 6, seed=0)
    finite = orbit_lab.density_report(s2, [(-2, 2)] * 3, eps=0.1)
    dt = time.perf_counter() - t0
    ok = dense.coverage >= 0.99 and finite.coverage <= 0.20 and dt < 60.0
    _report(7, bool(ok),
            f"(generic {dense.coverage:.4f}, finite {finite.coverage:.4f}, "
            f"{dt:.1f}s)")


# -- 8: two-holed torus steering ---------------------------------------------

def test_criterion_8_steering():
    t0 = time.perf_counter()
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X, Y, A = random_su2(rng), random_su2(rng), random_su2(rng)
        K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
        B = quat_mul(quat_inv(A), K)
        rep = T2Rep(X=X, Y=Y, A=A, B=B)
        word = list(rng.choice(["X", "Y", "K", "W", "V"], size=40))
        tgt = coords_of_rep_t2(apply_twist_word_t2(rep, word))
        try:
            twists, out = steer_t2(rep, (tgt.x, tgt.k), eps=0.1, budget=10 ** 7)
            final = coords_of_rep_t2(out)
            if abs(final.x - tgt.x) >= 0.1 or abs(final.k - tgt.k) >= 0.1 \
                    or apply_twist_word_t2(rep, twists) != out:
                failures.append(seed)
        except Exception:
            failures.append(seed)
    dt = time.perf_counter() - t0
    ok = not failures and dt < 600.0
    _report(8, ok, f"({20 - len(failures)}/20 seeds, {dt:.1f}s)")


# -- 9: pants inequalities on random closed genus-2 characters ---------------

def test_criterion_9_pants():
    rng = np.random.default_rng(109)
    P = orbit_lab.genus2_pants()
    worst = math.inf
    for _ in range(10 ** 3):
        rep = orbit_lab.random_genus2_rep(rng)
        beta = orbit_lab.pants_coords(rep, P)
        worst = min(worst, min(orbit_lab.check_pants_inequalities(beta, P)))
    ok = worst >= -1e-8
    _report(9, ok, f"(worst residual {worst:.2e})")


# -- 10: determinism of seeded reports ----------------------------------------

def test_criterion_10_determinism():
    rng = np.random.default_rng(110)
    rep = (random_su2(rng), random_su2(rng))

    def run():
        s = orbit_lab.orbit_sample(rep, "t1", budget=5000, seed=42)
        r = orbit_lab.density_report(s, [(-2, 2)] * 3, eps=0.25)
        return json.dumps(r.as_dict(), sort_keys=True).encode()

    ok = run() == run()
    _report(10, ok)
