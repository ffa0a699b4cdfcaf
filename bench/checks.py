"""Correctness checks computed apart from the package.

Each check takes plain data (arrays, tuples, strings) and returns a list of
failure messages, empty when the output is correct.  Only the benchmark's
own arithmetic (``quat``) and numpy/scipy are used to decide.
"""
from __future__ import annotations

import math

import numpy as np

import quat

INVARIANT_TOL = 1e-8     # chart invariant along a walk
REPLAY_TOL = 1e-8        # coordinate replay of the first steps
REPLAY_STEPS = 100
TRACE_SET_TOL = 1e-12    # finite-orbit coordinates
ESCAPE_TOL = 1e-12       # appendix escape traces
LINEAR_TOL = 1e-9        # appendix solutions against their constraints
BOUNDARY_TOL = 1e-9      # steer: a, b unchanged
RELATION_TOL = 1e-9      # steer: AB = +-YXY^-1X^-1
CELL_MARGIN = 1e-9       # float slack at cell-center / surface boundaries

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
GOLD_R2 = (SQRT5 + 1.0) / 2.0    # 2r
GOLD_S2 = (SQRT5 - 1.0) / 2.0    # 2s

#: closed-form trace sets of the binary polyhedral groups
TRACE_SETS = {
    "T": (0.0, 1.0, -1.0, 2.0, -2.0),
    "C": (0.0, 1.0, -1.0, 2.0, -2.0, SQRT2, -SQRT2),
    "D": (0.0, 1.0, -1.0, 2.0, -2.0, GOLD_R2, -GOLD_R2, GOLD_S2, -GOLD_S2),
}

#: group -> (classification flag, closure order)
GROUP_CLASS = {"T": ("in_T", 24), "C": ("in_C", 48), "D": ("in_D", 120)}

_SQM = math.sqrt(-11.0 + 8.0 * SQRT2)

#: the appendix worked cases, transcribed from the paper's appendix:
#: case -> (handle, linear constraints tr(P_word * A_j) = value, outcome,
#: escape traces).  Words: 'i' = A_i, 'g' = A_{g+i}, read left to right.
APPENDIX_EXPECTED = {
    "T-pin-allzero": ("T", (("i", 0.0), ("ig", 0.0), ("g", 0.0)),
                      "escape", (SQRT2, -SQRT2)),
    "T-pin-spin": ("T", (("g", 0.0), ("ig", 0.0)), "no_real_solutions", ()),
    "T-T-spin": ("T", (("g", 0.0), ("ig", 1.0)), "in_group", ()),
    "C-pin-spin": ("C", (("g", 0.0), ("ig", 0.0)), "no_real_solutions", ()),
    "C-spin-C": ("C", (("i", SQRT2), ("gi", 0.0)), "in_group", ()),
    "C-pin-escape": ("C", (("i", SQRT2), ("g", 1.0), ("ig", 1.0)),
                     "escape", (1.5 + _SQM / 2.0, 1.5 - _SQM / 2.0)),
    "D1-spin-pin": ("D1", (("i", 0.0), ("gi", 0.0)), "in_group", ()),
    "D1-spin-D": ("D1", (("i", GOLD_R2), ("gi", -GOLD_S2)),
                  "no_real_solutions", ()),
    "D1-pin-allzero": ("D1", (("i", 0.0), ("gi", 0.0), ("g", 0.0)),
                       "in_group", ()),
    "D1-inconsistent": ("D1", (("i", GOLD_R2), ("g", -GOLD_S2), ("ig", 0.0)),
                        "no_real_solutions", ()),
}


def _fail(errors: list, msg: str) -> list:
    errors.append(msg)
    return errors


# ---------------------------------------------------------------------------
# orbit walks
# ---------------------------------------------------------------------------

def check_walk(points, steps, start, invariant, move,
               n_replay: int = REPLAY_STEPS) -> list:
    """Every point satisfies invariant(p) = 0 within INVARIANT_TOL; the
    first point is `start`; and each of the first n_replay letters, applied
    by `move` to the recorded point before it, gives the recorded point
    after it within REPLAY_TOL.

    Each step is replayed from the recorded point rather than chained from
    the start: generic twist dynamics amplify rounding, so a chained
    coordinate replay of an s4 walk leaves 1e-8 within about 60 steps
    although every step is right."""
    errors: list = []
    pts = np.asarray(points, dtype=float)
    inv = np.abs(invariant(pts[:, 0], pts[:, 1], pts[:, 2]))
    worst = float(inv.max())
    if not worst <= INVARIANT_TOL:
        _fail(errors, f"chart invariant off by {worst:.3g} at point {int(inv.argmax())}")
    d = max(abs(start[i] - pts[0, i]) for i in range(3))
    if not d <= REPLAY_TOL:
        _fail(errors, f"first point is {d:.3g} from the starting character")
    for n, letter in enumerate(steps[:n_replay], start=1):
        p = move(letter, tuple(pts[n - 1]))
        d = max(abs(p[i] - pts[n, i]) for i in range(3))
        if not d <= REPLAY_TOL:
            return _fail(errors, f"replay differs by {d:.3g} at step {n} ({letter})")
    return errors


def t1_invariant(k0: float):
    return lambda x, y, z: x * x + y * y + z * z - x * y * z - 2.0 - k0


def s4_invariant(kappa):
    return lambda x, y, z: quat.e_kappa(kappa, (x, y, z))


def t1_move(letter, p):
    return quat.T1_COORD_MOVES[letter](*p)


def s4_move(kappa):
    return lambda letter, p: quat.s4_coord_move(letter, kappa, p)


def check_coverage(points, surface, region, eps: float,
                   hit_cells: int, total_cells: int, coverage: float) -> list:
    """Recount the epsilon-density report: on-surface cells are those where
    `surface` changes sign over the eight corners and the center; a cell is
    hit when a sample lies within eps of its center in the sup norm
    (counted with scipy's cKDTree).  Counts must agree up to cells within
    CELL_MARGIN of a decision boundary."""
    from scipy.spatial import cKDTree

    errors: list = []
    (lo, hi), = set(region)
    nb = max(1, math.ceil((hi - lo) / eps))
    edges = np.linspace(lo, hi, nb + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    cx, cy, cz = np.meshgrid(edges, edges, edges, indexing="ij")
    fc = surface(cx, cy, cz)
    mx, my, mz = np.meshgrid(mids, mids, mids, indexing="ij")
    vals = [surface(mx, my, mz)]
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                vals.append(fc[i:nb + i, j:nb + j, k:nb + k])
    stack = np.stack(vals)
    fmin, fmax = stack.min(axis=0), stack.max(axis=0)
    on_strict = (fmin < -CELL_MARGIN) & (fmax > CELL_MARGIN)
    on_loose = (fmin <= CELL_MARGIN) & (fmax >= -CELL_MARGIN)
    if not int(on_strict.sum()) <= total_cells <= int(on_loose.sum()):
        _fail(errors, f"on-surface cells {total_cells} outside "
                      f"[{int(on_strict.sum())}, {int(on_loose.sum())}]")
    centers = np.stack([mx, my, mz], axis=-1)
    tree = cKDTree(np.asarray(points, dtype=float))
    dist, _ = tree.query(centers[on_loose], p=np.inf,
                         distance_upper_bound=eps + 2 * CELL_MARGIN)
    strict_sel = on_strict[on_loose]
    hit_hi = int((dist <= eps + CELL_MARGIN).sum())
    hit_lo = int(((dist <= eps - CELL_MARGIN) & strict_sel).sum())
    if not hit_lo <= hit_cells <= hit_hi:
        _fail(errors, f"hit cells {hit_cells} outside [{hit_lo}, {hit_hi}]")
    if total_cells <= 0 or abs(coverage - hit_cells / total_cells) > 1e-15:
        _fail(errors, f"coverage {coverage} != {hit_cells}/{total_cells}")
    return errors


def check_trace_set(points, group: str) -> list:
    """Every coordinate lies within TRACE_SET_TOL of the group's trace set."""
    vals = np.array(TRACE_SETS[group])
    pts = np.asarray(points, dtype=float)
    dist = np.abs(pts[..., None] - vals).min(axis=-1)
    bad = np.nonzero((dist > TRACE_SET_TOL).any(axis=-1))[0]
    if bad.size:
        return [f"{bad.size} of {len(pts)} points leave the {group} trace set, "
                f"first at step {int(bad[0])} (off by {float(dist.max()):.3g})"]
    return []


def check_classification(flags: dict, witness, group: str) -> list:
    flag, order = GROUP_CLASS[group]
    errors: list = []
    if not flags.get(flag) or flags.get("is_dense") or flags.get("in_pin2"):
        _fail(errors, f"classified {flags}, expected {flag}")
    if group == "C" and flags.get("in_T"):
        _fail(errors, "binary octahedral handle classified as tetrahedral")
    if witness != order:
        _fail(errors, f"closure order {witness}, expected {order}")
    return errors


# ---------------------------------------------------------------------------
# appendix cases
# ---------------------------------------------------------------------------

def prefix_product(generators, word: str):
    out = (1.0, 0.0, 0.0, 0.0)
    for ch in word:
        out = quat.mul(out, generators[0] if ch == "i" else generators[1])
    return out


def check_appendix_case(case_id: str, outcome: str, solutions, escape_traces,
                        generators) -> list:
    """Outcome against the transcribed table; every solution a unit
    quaternion meeting its linear trace constraints; escape traces equal
    the closed forms.  `generators` are the float handle images."""
    _, linear, expected, traces = APPENDIX_EXPECTED[case_id]
    errors: list = []
    if outcome != expected:
        _fail(errors, f"outcome {outcome}, expected {expected}")
    if expected == "no_real_solutions" and solutions:
        _fail(errors, f"{len(solutions)} solutions reported for an empty system")
    if expected != "no_real_solutions" and not solutions:
        _fail(errors, "no solution reported")
    for sol in solutions:
        s = tuple(float(c) for c in sol)
        nrm = math.sqrt(sum(c * c for c in s))
        if not abs(nrm - 1.0) <= LINEAR_TOL:
            _fail(errors, f"solution norm {nrm!r}")
        for word, value in linear:
            r = quat.tr(quat.mul(prefix_product(generators, word), s)) - value
            if not abs(r) <= LINEAR_TOL:
                _fail(errors, f"tr({word}*Aj) off by {r:.3g}")
    got = sorted(float(t) for t in escape_traces)
    want = sorted(traces)
    if len(got) != len(want) or any(not abs(g - w) <= ESCAPE_TOL
                                    for g, w in zip(got, want)):
        _fail(errors, f"escape traces {got}, expected {want}")
    return errors


# ---------------------------------------------------------------------------
# steering
# ---------------------------------------------------------------------------

def check_steer(start, target, eps: float, result, replayed) -> list:
    """start/result/replayed are (X, Y, A, B) quaternion tuples: the input
    torus, the returned one, and the input with the returned word applied."""
    errors: list = []
    x0, k0 = target
    x, k = quat.t2_xk(result)
    if not abs(x - x0) < eps:
        _fail(errors, f"|x - x0| = {abs(x - x0):.4g} >= eps")
    if not abs(k - k0) < eps:
        _fail(errors, f"|k - k0| = {abs(k - k0):.4g} >= eps")
    for name, g0, g1 in (("a", start[2], result[2]), ("b", start[3], result[3])):
        d = abs(quat.tr(g0) - quat.tr(g1))
        if not d <= BOUNDARY_TOL:
            _fail(errors, f"boundary trace {name} moved by {d:.3g}")
    r = quat.t2_relation_residual(result)
    if not r <= RELATION_TOL:
        _fail(errors, f"relation residual {r:.3g}")
    # the replay is held to the target, not to the returned torus: words
    # of ~1000 letters replayed with another renormalisation cadence drift
    # from the returned torus by up to 1e-4 (rounding amplified by the
    # dynamics), which says nothing about whether the word steers
    xr, kr = quat.t2_xk(replayed)
    if not (abs(xr - x0) < eps and abs(kr - k0) < eps):
        _fail(errors, f"replayed word lands at |dx| = {abs(xr - x0):.4g}, "
                      f"|dk| = {abs(kr - k0):.4g} from the target")
    return errors
