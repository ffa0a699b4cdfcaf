"""Tests of the benchmark itself: small runs of every workload pass their
checks, each check rejects a deliberately corrupted output, and the
benchmark's own twist formulas agree with its own matrix twists.

    python3 -m pytest bench
"""
import json
import math
import os

import numpy as np
import pytest

import checks
import package
import quat
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def lib():
    return package.load(ROOT)


def outputs(lib, wl, seed=7, keep=None):
    """Run one round of `wl`; (op, output, check errors) per operation."""
    inputs = wl.make_inputs(seed)
    if keep is not None:
        inputs = {k: [v for v in vals if v in keep] for k, vals in inputs.items()}
    parsed = wl.parse(lib, inputs)
    res = []
    for op in wl.operations(lib, parsed, inputs):
        out = op.run()
        res.append((op, out, op.check(out)))
    return res


# -- small runs pass ----------------------------------------------------------

def test_orbit_generic_small_run_passes(lib):
    res = outputs(lib, workloads.OrbitGeneric(n_t1=2, n_s4=1, budget=3000))
    assert [errs for _, _, errs in res] == [[], [], []]


def test_orbit_finite_small_run_passes_except_the_known_fault(lib):
    res = outputs(lib, workloads.OrbitFinite(budget=2000))
    for op, _, errs in res:
        if op.known_fault is None:
            assert errs == [], op.name
        else:
            assert op.name == "D1-repfile" and errs, "the repfile round trip now keeps D1 exact"


def test_appendix_small_run_passes(lib):
    res = outputs(lib, workloads.Appendix(),
                  keep=("T-pin-allzero", "C-pin-escape", "D1-inconsistent"))
    assert [errs for _, _, errs in res] == [[], [], []]


def test_steer_small_run_passes(lib):
    res = outputs(lib, workloads.Steer(n_tori=2))
    assert [errs for _, _, errs in res] == [[], []]


def test_steer_inputs_fill_every_width_band():
    wl = workloads.Steer(n_tori=6)
    tori = wl.make_inputs(3)["tori"]
    bands = workloads.width_bands(6)
    for t, (lo, hi) in zip(tori, bands):
        assert lo <= workloads._interval_width(quat.tr(t["start"][2]), quat.tr(t["start"][3])) <= hi
        assert max(abs(u - v) for u, v in zip(quat.t2_xk(t["start"]), t["target"])) >= workloads.EPS
    assert wl.make_inputs(3) == wl.make_inputs(3)


# -- each check rejects a corrupted output ------------------------------------

def test_walk_check_rejects_a_point_off_its_surface(lib):
    (_, (sample, _), errs), = outputs(lib, workloads.OrbitGeneric(n_t1=1, n_s4=0, budget=2000))
    assert errs == []
    item = workloads.OrbitGeneric(n_t1=1, n_s4=0).make_inputs(7)["t1"][0]
    k0 = quat.t1_k(item["start"])
    pts = sample.points.copy()
    x, y, z = pts[500]
    grad = np.array([2 * x - y * z, 2 * y - x * z, 2 * z - x * y])
    pts[500] += 1e-6 * grad / np.linalg.norm(grad)
    errs = checks.check_walk(pts, sample.steps, item["start"],
                             checks.t1_invariant(k0), checks.t1_move)
    assert any("invariant" in e for e in errs)


def test_walk_check_rejects_a_mislabelled_step(lib):
    (_, (sample, _), _), = outputs(lib, workloads.OrbitGeneric(n_t1=1, n_s4=0, budget=500))
    item = workloads.OrbitGeneric(n_t1=1, n_s4=0).make_inputs(7)["t1"][0]
    steps = list(sample.steps)
    steps[10] = "Y" if steps[10] != "Y" else "X"
    errs = checks.check_walk(sample.points, steps, item["start"],
                             checks.t1_invariant(quat.t1_k(item["start"])),
                             checks.t1_move)
    assert any("replay" in e for e in errs)


def test_coverage_check_rejects_a_wrong_hit_count(lib):
    (_, (sample, report), _), = outputs(lib, workloads.OrbitGeneric(n_t1=1, n_s4=0, budget=2000))
    k0 = quat.t1_k(workloads.OrbitGeneric(n_t1=1, n_s4=0).make_inputs(7)["t1"][0]["start"])
    surface = checks.t1_invariant(k0)
    args = (sample.points, surface, workloads.REGION, workloads.EPS)
    assert checks.check_coverage(*args, report.hit_cells, report.total_cells,
                                 report.coverage) == []
    hit = report.hit_cells + 5
    assert checks.check_coverage(*args, hit, report.total_cells,
                                 hit / report.total_cells)


def test_escape_check_rejects_a_trace_off_by_1e9(lib):
    report = lib.appendix.verify_appendix_case("T-pin-allzero")
    gens = [g.to_float() for g in lib.appendix.GENERATORS["T"]]
    args = ("T-pin-allzero", report.solver_outcome, report.solutions)
    assert checks.check_appendix_case(*args, report.escape_traces, gens) == []
    bad = [report.escape_traces[0] + 1e-9] + list(report.escape_traces[1:])
    assert checks.check_appendix_case(*args, bad, gens)


def test_appendix_check_rejects_a_wrong_outcome_and_a_bad_solution():
    gens = [(0.5, -0.5, 0.5, -0.5), (0.5, -0.5, -0.5, 0.5)]
    h = math.sqrt(0.5)
    good = [(-h, h, 0.0, 0.0), (h, -h, 0.0, 0.0)]
    traces = (math.sqrt(2.0), -math.sqrt(2.0))
    assert checks.check_appendix_case("T-pin-allzero", "escape", good, traces, gens) == []
    assert checks.check_appendix_case("T-pin-allzero", "in_group", good, traces, gens)
    assert checks.check_appendix_case("T-pin-allzero", "escape",
                                      [(h, h, 0.0, 0.0)], traces, gens)


def test_steer_check_rejects_a_result_one_eps_from_target(lib):
    wl = workloads.Steer(n_tori=1)
    (_, (word, res, _), errs), = outputs(lib, wl)
    assert errs == []
    item = wl.make_inputs(7)["tori"][0]
    result = (res.X, res.Y, res.A, res.B)
    x, k = quat.t2_xk(result)
    eps = workloads.EPS

    def one_eps_from(v, direction):
        """The nearest float at least eps from v, on the given side."""
        w = v + direction * eps
        while abs(w - v) < eps:
            w = math.nextafter(w, direction * math.inf)
        return w
    for target in ((one_eps_from(x, 1), k), (x, one_eps_from(k, -1))):
        assert checks.check_steer(item["start"], target, eps, result, result)
    assert checks.check_steer(item["start"], (x, k), eps, result, result) == []


def test_trace_set_check_rejects_a_coordinate_off_the_set(lib):
    pts = np.array([[0.0, 1.0, -1.0], [checks.GOLD_R2, -checks.GOLD_S2, 2.0]])
    assert checks.check_trace_set(pts, "D") == []
    assert checks.check_trace_set(pts, "T")
    pts[1, 1] += 1e-9
    assert checks.check_trace_set(pts, "D")


# -- the benchmark's own formulas ---------------------------------------------

def test_t1_coordinate_moves_match_matrix_moves():
    rng = np.random.default_rng(1)
    X, Y = quat.haar(rng), quat.haar(rng)
    matrix = {"X": lambda X, Y: (X, quat.mul(Y, X)),
              "X'": lambda X, Y: (X, quat.mul(Y, quat.inv(X))),
              "Y": lambda X, Y: (quat.mul(X, Y), Y),
              "Y'": lambda X, Y: (quat.mul(X, quat.inv(Y)), Y)}
    for letter, move in matrix.items():
        got = quat.T1_COORD_MOVES[letter](*quat.t1_coords(X, Y))
        assert np.allclose(got, quat.t1_coords(*move(X, Y)), atol=1e-13), letter


def test_s4_coordinate_moves_match_matrix_moves():
    rng = np.random.default_rng(2)
    A, B, C = quat.haar(rng), quat.haar(rng), quat.haar(rng)
    rep = (A, B, C, quat.inv(quat.mul(quat.mul(A, B), C)))
    kappa = quat.s4_kappa(rep)
    assert abs(quat.e_kappa(kappa, quat.s4_coords(rep))) < 1e-12
    for letter in ("X", "X'", "Y", "Y'", "Z", "Z'"):
        got = quat.s4_coord_move(letter, kappa, quat.s4_coords(rep))
        want = quat.s4_coords(quat.s4_matrix_move(letter, rep))
        assert np.allclose(got, want, atol=1e-12), letter


def test_t2_moves_keep_boundary_and_relation():
    rng = np.random.default_rng(3)
    X, Y, A = quat.haar(rng), quat.haar(rng), quat.haar(rng)
    rep = (X, Y, A, quat.mul(quat.inv(A), quat.commutator_inverse(X, Y)))
    out = quat.t2_apply(rep, list("XYKWV" * 8))
    assert quat.t2_relation_residual(out) < 1e-12
    assert abs(quat.tr(out[2]) - quat.tr(A)) < 1e-12
    assert abs(quat.tr(out[3]) - quat.tr(rep[3])) < 1e-12


def test_t2_target_words_match_the_package(lib):
    rng = np.random.default_rng(4)
    X, Y, A = quat.haar(rng), quat.haar(rng), quat.haar(rng)
    rep = (X, Y, A, quat.mul(quat.inv(A), quat.commutator_inverse(X, Y)))
    word = list("XYKWVKWVYX")
    theirs = lib.torus_family.apply_twist_word_t2(lib.torus_family.T2Rep(*rep), word)
    assert np.allclose(quat.t2_xk(quat.t2_apply(rep, word)),
                       quat.t2_xk((theirs.X, theirs.Y, theirs.A, theirs.B)), atol=1e-9)


# -- the metric list ----------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
