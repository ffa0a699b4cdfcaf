"""Command-line front end.

Subcommands: classify, orbit, density, levelset, steer, verify-appendix,
pants-check.  Defaults can come from an INI config (--config); --seed,
--budget, --eps and --out override it.  Exit codes: 0 success, 2 parse
error, 3 invariant violation, 4 budget exhausted.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys

import numpy as np

from . import orbit_lab, sphere_four, torus_family, torus_one
from .appendix import verify_all_worked_cases
from .classify import classify_subgroup
from .repfile import RepFileError, parse_repfile
from .tolerances import DEFAULT
from .torus_one import SteerFailure

EXIT_OK, EXIT_PARSE, EXIT_INVARIANT, EXIT_BUDGET = 0, 2, 3, 4


def _emit(obj, out_path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path):
    cp = configparser.ConfigParser()
    if path:
        if not cp.read(path):
            raise RepFileError(f"cannot read config {path}")
    return cp


def _setting(args, cp, name, cast, default):
    """Flag > config [experiment] entry > default."""
    v = getattr(args, name.replace("-", "_"), None)
    if v is not None:
        return v
    if cp.has_option("experiment", name):
        return cast(cp.get("experiment", name))
    return default


def _load_rep(path):
    rf = parse_repfile(path)
    rep = rf.surface_rep()   # ValueError (exit 3) on relation violation
    return rf, rep


def cmd_classify(args) -> int:
    cp = _load_config(args.config)
    rf, rep = _load_rep(args.repfile)
    gens = rf.exact_images if rf.is_exact else rep.images
    verdict = classify_subgroup(gens)
    out = dataclasses.asdict(verdict)
    out["witness"] = repr(verdict.witness) if verdict.witness is not None else None
    out["exact_path"] = rf.is_exact
    _emit(out, _setting(args, cp, "out", str, None))
    return EXIT_OK


#: chart -> (genus, boundary) of the surfaces it walks; None: any boundary.
#: t1 twists the handle (A1, A2), which is a handle only in genus 1.
_CHART_SURFACE = {"t1": (1, None), "s4": (0, 4), "t2": (1, 2)}


def _chart_state(rf, rep, chart):
    """Start state of a walk on chart; RepFileError if the file's surface is
    not one the chart applies to."""
    have = (rf.presentation.genus, rf.presentation.boundary)
    want = _CHART_SURFACE.get(chart)
    if want is not None and (have[0] != want[0] or want[1] not in (None, have[1])):
        need = f"genus {want[0]}" + (f", boundary {want[1]}" if want[1] is not None else "")
        raise RepFileError(f"chart {chart} needs a surface of {need}; the file "
                           f"has genus {have[0]}, boundary {have[1]}")
    if chart == "t1":
        return (rf.exact_images[0], rf.exact_images[1]) if rf.is_exact \
            else (rep.images[0], rep.images[1])
    if chart == "t2":
        return orbit_lab._t2_state(rep)
    return rep


def cmd_orbit(args) -> int:
    cp = _load_config(args.config)
    rf, rep = _load_rep(args.repfile)
    chart = _setting(args, cp, "chart", str, "t1")
    budget = int(_setting(args, cp, "budget", int, 1000))
    seed = int(_setting(args, cp, "seed", int, 0))
    sample = orbit_lab.orbit_sample(_chart_state(rf, rep, chart), chart,
                                    strategy=args.strategy, budget=budget,
                                    seed=seed)
    if args.self_check:
        ch = orbit_lab._CHARTS[chart]
        worst = max(ch.residual(tuple(p), sample.meta) for p in sample.points)
        if worst > DEFAULT.chart:
            print(f"self-check failed: chart residual {worst:.3g}",
                  file=sys.stderr)
            return EXIT_INVARIANT
    out_path = _setting(args, cp, "out", str, None)
    if out_path:
        sample.to_csv(out_path)
    summary = {"chart": chart, "points": len(sample), "seed": seed,
               "word_stats": sample.word_stats(), "out": out_path}
    _emit(summary)
    return EXIT_OK


def cmd_density(args) -> int:
    cp = _load_config(args.config)
    rf, rep = _load_rep(args.repfile)
    chart = _setting(args, cp, "chart", str, "t1")
    budget = int(_setting(args, cp, "budget", int, 10 ** 5))
    seed = int(_setting(args, cp, "seed", int, 0))
    eps = float(_setting(args, cp, "eps", float, 0.1))
    lo, hi = (float(t) for t in
              str(_setting(args, cp, "region", str, "-2,2")).split(","))
    sample = orbit_lab.orbit_sample(_chart_state(rf, rep, chart), chart,
                                    budget=budget, seed=seed)
    report = orbit_lab.density_report(sample, [(lo, hi)] * 3, eps)
    _emit(report.as_dict(), _setting(args, cp, "out", str, None))
    return EXIT_OK


def cmd_levelset(args) -> int:
    cp = _load_config(args.config)
    count = args.count
    if args.kappa:
        a, b, c, d = (float(t) for t in args.kappa.split(","))
        kappa = sphere_four.Kappa4(a, b, c, d)
        lo1, hi1 = sphere_four.trace_interval(a, b)
        lo2, hi2 = sphere_four.trace_interval(c, d)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        xs = ([float(args.x)] if args.x is not None
              else list(np.linspace(lo + 1e-6, hi - 1e-6, count)))
        family = []
        for x in xs:
            e = sphere_four.x_level_ellipse(kappa, float(x))
            family.append({
                "x": float(e.x), "center": [float(c) for c in e.center],
                "angle": float(e.angle), "coeff_plus": float(e.coeff_plus),
                "coeff_minus": float(e.coeff_minus), "rhs": float(e.rhs),
                "degenerate": bool(e.degenerate),
            })
        _emit({"chart": "s4", "kappa": [a, b, c, d],
               "x_interval": [float(lo), float(hi)], "ellipses": family},
              _setting(args, cp, "out", str, None))
        return EXIT_OK
    if args.k is None:
        raise RepFileError("levelset needs --k or --kappa")
    k = float(args.k)
    xs = ([float(args.x)] if args.x is not None
          else list(np.linspace(-2 + 1e-6, 2 - 1e-6, count)))
    family = []
    for x in xs:
        e = torus_one.level_ellipse_x(k, float(x))
        family.append({
            "x": float(e.fixed_value), "center": [float(c) for c in e.center],
            "angle": float(e.angle), "coeff_plus": float(e.coeff_plus),
            "coeff_minus": float(e.coeff_minus),
            "radius_sq": float(e.radius_sq), "degenerate": bool(e.degenerate),
        })
    _emit({"chart": "t1", "k": k, "ellipses": family},
          _setting(args, cp, "out", str, None))
    return EXIT_OK


def cmd_steer(args) -> int:
    cp = _load_config(args.config)
    rf, rep = _load_rep(args.repfile)
    chart = _setting(args, cp, "chart", str, "t1")
    eps = float(_setting(args, cp, "eps", float, 0.1))
    budget = int(_setting(args, cp, "budget", int, 10 ** 6))
    t1, t2 = (float(t) for t in args.target.split(","))
    state = _chart_state(rf, rep, chart)
    if chart == "t1":
        # steering runs in floats, also on an exact file
        p = torus_one.coords_of_matrices(rep.images[0], rep.images[1])
        word, final = torus_one.steer_t1(p, (t1, t2), eps, budget)
        achieved = {"x": final[0], "y": final[1], "z": final[2],
                    "k": torus_one.k_of(final)}
    elif chart == "t2":
        word, out_rep = torus_family.steer_t2(state, (t1, t2), eps, budget)
        q = torus_family.coords_of_rep_t2(out_rep)
        achieved = {"x": q.x, "k": q.k, "y": q.y, "w": q.w, "wp": q.wp}
    else:
        raise RepFileError(f"steer supports charts t1/t2, not {chart!r}")
    _emit({"chart": chart, "target": [t1, t2], "eps": eps,
           "word": orbit_lab._compact_word(word), "length": len(word),
           "achieved": achieved},
          _setting(args, cp, "out", str, None))
    return EXIT_OK


def cmd_verify_appendix(args) -> int:
    reports = verify_all_worked_cases()
    bad = 0
    for r in reports:
        status = "pass" if r.passed in (True, None) else "FAIL"
        bad += status == "FAIL"
        print(f"{r.case_id:<18} {r.group:<8} {r.solver_outcome:<18} {status}")
    return EXIT_OK if bad == 0 else EXIT_INVARIANT


def cmd_pants_check(args) -> int:
    cp = _load_config(args.config)
    rf, rep = _load_rep(args.repfile)
    if (rep.presentation.genus, rep.presentation.boundary) != (2, 0):
        raise ValueError("pants-check ships the standard genus-2 "
                         "decomposition only")
    P = orbit_lab.genus2_pants()
    beta = orbit_lab.pants_coords(rep, P)
    residuals = orbit_lab.check_pants_inequalities(beta, P)
    ok = all(r >= -1e-8 for r in residuals)
    _emit({"beta": [float(b) for b in beta],
           "residuals": [float(r) for r in residuals],
           "angles": [float(t) for t in orbit_lab.fibre_rotation_angles(beta)],
           "satisfied": ok},
          _setting(args, cp, "out", str, None))
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="su2moduli")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, repfile=True):
        if repfile:
            p.add_argument("repfile")
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--budget", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--out")

    p = sub.add_parser("classify", help="subgroup classification of a rep")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="sample a twist orbit to CSV")
    common(p)
    p.add_argument("--chart", choices=("t1", "s4", "t2"))
    p.add_argument("--strategy", default="random", choices=("random", "bfs"))
    p.add_argument("--self-check", action="store_true",
                   help="verify the chart equation at every sampled point")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("density", help="epsilon-density report for an orbit")
    common(p)
    p.add_argument("--chart", choices=("t1", "s4"))
    p.add_argument("--region", help="lo,hi box applied to every axis")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("levelset", help="level-set ellipse data for plotting")
    common(p, repfile=False)
    p.add_argument("--k", type=float, help="one-holed torus boundary trace")
    p.add_argument("--kappa", help="a,b,c,d four-holed sphere boundary traces")
    p.add_argument("--x", type=float, help="single fibre instead of a family")
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("steer", help="steer a rep toward target coordinates")
    common(p)
    p.add_argument("--chart", choices=("t1", "t2"))
    p.add_argument("--target", required=True,
                   help="x,y (chart t1) or x,k (chart t2)")
    p.set_defaults(func=cmd_steer)

    p = sub.add_parser("verify-appendix", help="re-verify the worked cases")
    p.add_argument("--config")
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("pants-check", help="pants inequality residuals")
    common(p)
    p.set_defaults(func=cmd_pants_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RepFileError, FileNotFoundError, configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SteerFailure as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, TypeError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
