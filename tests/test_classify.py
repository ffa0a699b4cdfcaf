"""Subgroup classification: finite closures, fingerprints, trace criteria."""
import math

import numpy as np
import pytest

from su2moduli import su2
from su2moduli.appendix import GENERATORS
from su2moduli.classify import (
    AmbiguousClusteringError,
    classify_subgroup,
    finite_closure,
    one_holed_genericity_shortcut,
    pin2_criterion_3holed,
    pin2_geometric_test,
    spin2_criterion_3holed,
)
from su2moduli.tolerances import DEFAULT, Tolerances

RNG = np.random.default_rng(11)


@pytest.mark.parametrize("name,order", [("T", 24), ("C", 48), ("D1", 120),
                                        ("D2", 120), ("D3", 120)])
def test_exact_closure_orders(name, order):
    fc = finite_closure(GENERATORS[name])
    assert fc.closed
    assert len(fc.elements) == order


def test_float_closure_matches_exact():
    gens = [g.to_float() for g in GENERATORS["C"]]
    fc = finite_closure(gens)
    assert fc.closed and len(fc.elements) == 48


def test_classify_binary_polyhedral():
    vt = classify_subgroup(GENERATORS["T"])
    assert vt.in_T and vt.in_C and not vt.in_D and not vt.is_dense
    vc = classify_subgroup(GENERATORS["C"])
    assert vc.in_C and not vc.in_T and not vc.is_dense
    vd = classify_subgroup(GENERATORS["D1"])
    assert vd.in_D and not vd.in_C and not vd.is_dense


def test_classify_spin2_and_pin2():
    a = su2.from_axis_angle((0, 0, 1), 0.3)
    b = su2.from_axis_angle((0, 0, 1), 1.0)
    v = classify_subgroup([a, b])
    assert v.in_spin2 and v.in_pin2 and not v.is_dense
    # j swaps the torus: <e^{i t}, j> is Pin(2) but not Spin(2)
    j = (0.0, 0.0, 1.0, 0.0)
    v2 = classify_subgroup([a, j])
    assert v2.in_pin2 and not v2.in_spin2 and not v2.is_dense


def test_classify_haar_random_is_dense():
    for _ in range(10):
        v = classify_subgroup([su2.random_su2(RNG), su2.random_su2(RNG)])
        assert v.is_dense


def test_pin2_geometric_test_finds_axis():
    a = su2.from_axis_angle((0, 0, 1), 0.7)
    j = (0.0, math.sin(0.2), math.cos(0.2), 0.0)  # half-turn, axis in xy-plane
    axis = pin2_geometric_test([a, j])
    assert axis is not None
    assert abs(abs(axis[2]) - 1.0) < 1e-9
    assert pin2_geometric_test([a, su2.random_su2(RNG)]) is None


def test_trace_criteria_3holed():
    # commuting pair about one axis: (a, b, ab) satisfies the spin2 relation
    a = su2.from_axis_angle((0, 0, 1), 0.5)
    b = su2.from_axis_angle((0, 0, 1), 1.2)
    ab = su2.quat_mul(a, b)
    assert spin2_criterion_3holed(su2.trace(a), su2.trace(b), su2.trace(ab))
    r = su2.random_su2(RNG)
    assert not spin2_criterion_3holed(
        su2.trace(a), su2.trace(r), su2.trace(su2.quat_mul(a, r)))
    # pin2: two half-turns (trace 0) with anything
    assert pin2_criterion_3holed(0.0, 0.0, 0.37)


def test_genericity_shortcut():
    # k = 0 is in the special set: shortcut must decline
    assert not one_holed_genericity_shortcut(1.0, 1.0, 1.0)
    # coordinate-axis (Pin(2) locus) point
    assert not one_holed_genericity_shortcut(0.9, 0.0, 0.0)
    # a garden-variety dense character
    assert one_holed_genericity_shortcut(0.5, 0.7, 1.1)


# ---------------------------------------------------------------------------
# the grid-hashed float closure against a linear scan
# ---------------------------------------------------------------------------

def _linear_scan_closure(gens, cap=240, eps=DEFAULT.cluster):
    """Float closure that looks every product up by a linear scan: the
    nearest element within eps (first index on ties) is a match."""
    def find(q):
        best, best_d = -1, math.inf
        for i, e in enumerate(elements):
            d = max(abs(q[k] - e[k]) for k in range(4))
            if d < best_d:
                best, best_d = i, d
        if best_d <= eps:
            return best
        if best_d <= 10.0 * eps:
            raise AmbiguousClusteringError(best_d)
        return -1

    elements = [su2.IDENTITY]
    frontier = [su2.IDENTITY]
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                v = su2.normalize(su2.quat_mul(u, g))
                if find(v) == -1:
                    if len(elements) >= cap:
                        return sorted(elements), False
                    elements.append(v)
                    new.append(v)
        frontier = new
    return sorted(elements), True


def _float_pairs():
    rng = np.random.default_rng(2024)
    pairs = [(su2.random_su2(rng), su2.random_su2(rng)) for _ in range(50)]
    pairs += [tuple(g.to_float() for g in GENERATORS[h])
              for h in ("T", "C", "D1", "D2", "D3")]
    pairs.append((su2.from_axis_angle((0, 0, 1), 0.3), (0.0, 0.0, 1.0, 0.0)))
    return pairs


def test_float_closure_matches_linear_scan():
    for gens in _float_pairs():
        fc = finite_closure(list(gens))
        assert (fc.elements, fc.closed) == _linear_scan_closure(gens)


def test_float_closure_near_duplicate_generators_are_ambiguous():
    g = su2.random_su2(np.random.default_rng(5))
    h = su2.normalize((g[0] + 5e-9, g[1], g[2], g[3]))
    with pytest.raises(AmbiguousClusteringError):
        _linear_scan_closure([g, h])
    with pytest.raises(AmbiguousClusteringError, match="use the exact path"):
        finite_closure([g, h])
    with pytest.raises(AmbiguousClusteringError):
        classify_subgroup([g, h])
    # within the tolerance the two generators are one element
    h = su2.normalize((g[0] + 5e-10, g[1], g[2], g[3]))
    assert finite_closure([g, h]).elements == finite_closure([g]).elements


def test_float_closure_needs_positive_tolerance():
    with pytest.raises(ValueError):
        finite_closure([su2.IDENTITY], tol=Tolerances(cluster=0.0))
