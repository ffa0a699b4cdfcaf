"""The four workloads: seeded inputs, the operations of one round, and the
check of each operation's output.

An operation calls the public functions that the matching ``su2moduli``
subcommand calls (``density``, ``classify``, ``verify-appendix``,
``steer``).  Inputs are made by the benchmark from ``--seed`` with its own
Haar sampler and written as representation-file text; the package only sees
that text (or, for the finite handles, ``appendix.GENERATORS``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import quat

EPS = 0.1
REGION = [(-2.0, 2.0)] * 3


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    #: a fault of the package that makes this operation fail every time
    known_fault: str | None = None


def _repfile_text(genus: int, boundary: int, images) -> str:
    lines = [f"genus {genus}", f"boundary {boundary}"]
    lines += ["generator " + " ".join(repr(float(c)) for c in g) for g in images]
    return "\n".join(lines) + "\n"


def _parse(lib, text: str):
    """Parse and validate a representation file as ``su2moduli`` does."""
    return lib.repfile.parse_repfile_text(text).surface_rep()


def _density(lib, state, chart: str, budget: int, seed: int):
    sample = lib.orbit_lab.orbit_sample(state, chart, budget=budget, seed=seed)
    report = lib.orbit_lab.density_report(sample, REGION, EPS)
    return sample, report


# ---------------------------------------------------------------------------
# orbit-generic
# ---------------------------------------------------------------------------

@dataclass
class OrbitGeneric:
    """Float twist walks plus density reports on Haar-random one-holed tori
    and four-holed spheres (``su2moduli density --chart t1|s4``)."""

    n_t1: int = 4
    n_s4: int = 2
    budget: int = 100_000
    name: str = "orbit-generic"

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        t1, s4 = [], []
        for _ in range(self.n_t1):
            X, Y = quat.haar(rng), quat.haar(rng)
            C = quat.commutator_inverse(X, Y)
            t1.append({"start": quat.t1_coords(X, Y),
                       "text": _repfile_text(1, 1, (X, Y, C)),
                       "walk_seed": int(rng.integers(2 ** 31))})
        for _ in range(self.n_s4):
            A, B, C = quat.haar(rng), quat.haar(rng), quat.haar(rng)
            rep = (A, B, C, quat.inv(quat.mul(quat.mul(A, B), C)))
            s4.append({"start": quat.s4_coords(rep), "kappa": quat.s4_kappa(rep),
                       "text": _repfile_text(0, 4, rep),
                       "walk_seed": int(rng.integers(2 ** 31))})
        return {"t1": t1, "s4": s4}

    def parse(self, lib, inputs: dict) -> dict:
        return {chart: [_parse(lib, item["text"]) for item in inputs[chart]]
                for chart in ("t1", "s4")}

    def t1_coordinate_evaluations(self) -> int:
        """coords_of_matrices calls one round must make: one per recorded
        point plus one for the orbit invariant k of the start."""
        return self.n_t1 * (self.budget + 1)

    def operations(self, lib, parsed: dict, inputs: dict) -> list:
        ops = []
        for n, (item, rep) in enumerate(zip(inputs["t1"], parsed["t1"])):
            k0 = quat.t1_k(item["start"])
            ops.append(Op(
                f"t1-{n}",
                lambda rep=rep, item=item: _density(
                    lib, (rep.images[0], rep.images[1]), "t1",
                    self.budget, item["walk_seed"]),
                lambda out, item=item, k0=k0: _check_generic(
                    out, item["start"], checks.t1_invariant(k0), checks.t1_move)))
        for n, (item, rep) in enumerate(zip(inputs["s4"], parsed["s4"])):
            kappa = item["kappa"]
            ops.append(Op(
                f"s4-{n}",
                lambda rep=rep, item=item: _density(
                    lib, rep, "s4", self.budget, item["walk_seed"]),
                lambda out, item=item, kappa=kappa: _check_generic(
                    out, item["start"], checks.s4_invariant(kappa),
                    checks.s4_move(kappa))))
        return ops


def _check_generic(out, start, invariant, move) -> list:
    sample, report = out
    errors = checks.check_walk(sample.points, sample.steps, start, invariant, move)
    return errors + checks.check_coverage(sample.points, invariant, REGION, EPS,
                                          report.hit_cells, report.total_cells,
                                          report.coverage)


# ---------------------------------------------------------------------------
# orbit-finite
# ---------------------------------------------------------------------------

HANDLES = {"T": "T", "C": "C", "D1": "D", "D2": "D", "D3": "D"}


@dataclass
class OrbitFinite:
    """Classification plus exact density runs on the binary polyhedral
    handles (``su2moduli classify`` then ``density``), and the D1 handle
    passed through a representation file, which drops exactness."""

    budget: int = 100_000
    name: str = "orbit-finite"

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {"walk_seeds": {h: int(rng.integers(2 ** 31)) for h in HANDLES}}

    def parse(self, lib, inputs: dict) -> dict:
        return {h: tuple(lib.appendix.GENERATORS[h]) for h in HANDLES}

    def operations(self, lib, parsed: dict, inputs: dict) -> list:
        ops = []
        for h, group in HANDLES.items():
            ops.append(Op(
                h,
                lambda gens=parsed[h], ws=inputs["walk_seeds"][h]: (
                    lib.classify.classify_subgroup(list(gens)),
                    *_density(lib, gens, "t1", self.budget, ws)),
                lambda out, group=group: _check_finite(out, group)))
        ops.append(Op(
            "D1-repfile",
            lambda: self._repfile_round_trip(lib, parsed["D1"]),
            lambda out: _check_finite((None, *out), "D"),
            known_fault="format_repfile writes Q(sqrt2, sqrt5) entries as "
                        "decimals, so the walk runs in float and leaves the "
                        "finite orbit"))
        return ops

    def _repfile_round_trip(self, lib, gens):
        X, Y = gens
        C = Y * X * Y.inverse() * X.inverse()
        pres = lib.su2.SurfacePresentation(1, 1)
        rep = _parse(lib, lib.repfile.format_repfile(pres, [X, Y, C]))
        # walk seed fixed, so the operation fails alike on every --seed
        return _density(lib, (rep.images[0], rep.images[1]), "t1",
                        self.budget, 0)


def _check_finite(out, group: str) -> list:
    verdict, sample, report = out
    errors = []
    if verdict is not None:
        errors += checks.check_classification(
            {k: getattr(verdict, k) for k in
             ("in_spin2", "in_pin2", "in_T", "in_C", "in_D", "is_dense")},
            verdict.witness, group)
    errors += checks.check_trace_set(sample.points, group)
    if not report.coverage <= 0.20:
        errors.append(f"coverage {report.coverage:.4f} > 0.20 on a finite orbit")
    return errors


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

@dataclass
class Appendix:
    """The ten shipped worked cases (``su2moduli verify-appendix``).  The
    cases are fixed by the paper, so this workload has no seeded input."""

    name: str = "appendix"

    def make_inputs(self, seed: int) -> dict:
        return {"cases": list(checks.APPENDIX_EXPECTED)}

    def parse(self, lib, inputs: dict) -> dict:
        return {}

    def operations(self, lib, parsed: dict, inputs: dict) -> list:
        gens = {h: tuple(g.to_float() for g in lib.appendix.GENERATORS[h])
                for h in ("T", "C", "D1")}

        def check(report, cid):
            handle = checks.APPENDIX_EXPECTED[cid][0]
            return checks.check_appendix_case(
                cid, report.solver_outcome, report.solutions,
                report.escape_traces, gens[handle])
        return [Op(cid,
                   lambda cid=cid: lib.appendix.verify_appendix_case(cid),
                   lambda out, cid=cid: check(out, cid))
                for cid in inputs["cases"]]


# ---------------------------------------------------------------------------
# steer
# ---------------------------------------------------------------------------

STEER_LETTERS = ("X", "Y", "K", "W", "V")
STEER_WORD_LENGTH = 40
STEER_BUDGET = 10 ** 6
WIDTH_BAND = 0.02        # half-width of a torus width band, in quantile
MAX_TORUS_DRAWS = 100_000


def _interval_width(a, b):
    """Width of the boundary trace interval I_{a,b}; the x-grid of
    delta_inband, and so most of steer_t2's time, scales with it."""
    return np.sqrt(np.maximum((4.0 - a * a) * (4.0 - b * b), 0.0))


def width_bands(n: int) -> np.ndarray:
    """(n, 2) bounds of narrow bands of the I_{a,b} width of Haar-random
    two-holed tori, centred on the quantiles (j + 1/2)/n and WIDTH_BAND wide
    on each side in quantile (fixed-seed Monte Carlo)."""
    rng = np.random.default_rng(0x5eed)
    X, Y, A = (quat.haar_array(rng, 1 << 15) for _ in range(3))
    K = quat.mul_array(quat.mul_array(Y, X),
                       quat.mul_array(quat.inv_array(Y), quat.inv_array(X)))
    B = quat.mul_array(quat.inv_array(A), K)
    width = _interval_width(2.0 * A[:, 0], 2.0 * B[:, 0])
    centres = (np.arange(n) + 0.5) / n
    return np.quantile(width, np.stack([centres - WIDTH_BAND, centres + WIDTH_BAND],
                                       axis=1))


@dataclass
class Steer:
    """steer_t2 toward reachable targets on Haar-random two-holed tori
    (``su2moduli steer --chart t2``).  Torus j is a Haar torus whose I_{a,b}
    width lies in a narrow band around the (j + 1/2)/n_tori quantile, so
    every round has the same delta_inband grid sizes whatever the seed;
    each torus has its own boundary traces."""

    n_tori: int = 4
    name: str = "steer"

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        bands = width_bands(self.n_tori)
        tori: list = [None] * self.n_tori
        for _ in range(MAX_TORUS_DRAWS):
            X, Y, A = quat.haar(rng), quat.haar(rng), quat.haar(rng)
            B = quat.mul(quat.inv(A), quat.commutator_inverse(X, Y))
            a, b = quat.tr(A), quat.tr(B)
            if max(abs(a), abs(b)) > 2.0 - 1e-6:
                continue
            w = _interval_width(a, b)
            slot = next((j for j, (lo, hi) in enumerate(bands)
                         if lo <= w <= hi and tori[j] is None), None)
            if slot is None:
                continue
            rep = (X, Y, A, B)
            tori[slot] = {"start": rep, "target": self._target(rng, rep),
                          "text": _repfile_text(1, 2, rep)}
            if all(t is not None for t in tori):
                return {"tori": tori}
        raise RuntimeError("could not fill every I_{a,b} width band")

    def _target(self, rng, rep):
        """(x, k) after a random twist word, redrawn while it lies within
        eps of the start: steer_t2 returns at once on such a target, and a
        seed-dependent number of free operations would swamp the timing."""
        x, k = quat.t2_xk(rep)
        while True:
            word = [STEER_LETTERS[i] for i in
                    rng.integers(len(STEER_LETTERS), size=STEER_WORD_LENGTH)]
            x0, k0 = quat.t2_xk(quat.t2_apply(rep, word))
            if abs(x0 - x) >= EPS or abs(k0 - k) >= EPS:
                return x0, k0

    def parse(self, lib, inputs: dict) -> list:
        return [lib.torus_family.T2Rep(*_parse(lib, t["text"]).images).validate()
                for t in inputs["tori"]]

    def operations(self, lib, parsed: list, inputs: dict) -> list:
        tf = lib.torus_family

        def steer(rep, target):
            word, out = tf.steer_t2(rep, target, EPS, STEER_BUDGET)
            return word, out, tf.coords_of_rep_t2(out)

        def check(out, rep, item):
            word, res, _ = out
            replayed = tf.apply_twist_word_t2(rep, word)
            as_tuple = lambda r: (r.X, r.Y, r.A, r.B)
            return checks.check_steer(item["start"], item["target"], EPS,
                                      as_tuple(res), as_tuple(replayed))
        return [Op(f"torus-{n}",
                   lambda rep=rep, item=item: steer(rep, item["target"]),
                   lambda out, rep=rep, item=item: check(out, rep, item))
                for n, (rep, item) in enumerate(zip(parsed, inputs["tori"]))]


WORKLOADS = {w.name: w for w in (OrbitGeneric(), OrbitFinite(), Appendix(), Steer())}
