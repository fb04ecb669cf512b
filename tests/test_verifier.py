"""Config loading, sampling, verdicts, sweeps, reports, and the CLI contract."""

import ast
import copy
import hashlib
import itertools
import json
import logging
import math
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm
from polyharm import mobius, residuals, sampling
from polyharm.check import ConfiguredInstance, check_report_body, load_config, run_check
from polyharm.cli import main
from polyharm.errors import (
    AdmissibleRegionError,
    ConfigError,
    DegreeError,
    DoubleRangeError,
    MapValidationError,
    PolyharmError,
    ShapeMismatchError,
)
from polyharm.mobius import ConformalInstance, MobiusMap
from polyharm.rationals import EXACT, FLOAT, IntegerPoint, format_rational, rational
from polyharm.report import ResidualReport, render_report
from polyharm.sampling import _flat_sample_point, _randint
from polyharm.selftest import _polyharmonic_battery, selftest
from polyharm.spaceform import SpaceFormModel
from polyharm.verifier import (
    CURVATURE_PAIRS,
    SamplePlan,
    _map_dict,
    _point_list,
    _polyharmonic_point,
    _polyharmonic_trial,
    _sweep_instance,
    expected_polyharmonic_zero,
    expected_proper_biharmonic,
    random_mobius,
    sample_points,
    sweep_biharmonic,
    sweep_polyharmonic,
)

from conftest import rng_for
from jet_oracles import apply_point, conformal_factor_value, fraction_matrix

GOLDEN = Path(__file__).parent / "golden"


def _zeros(m):
    return ["0"] * m


# three admissible points of the m = 4 inversion of ``_inversion_config``
_EXPLICIT_POINTS = [["1", "0", "0", "0"], ["0", "1/2", "0", "0"], ["1/3", "1/3", "0", "1"]]


def _inversion_config(m=4, expect=None, seed=5, count=6):
    cfg = {
        "domain": {"model": "flat", "dim": m},
        "target": {"model": "flat", "dim": m},
        "map": {
            "a": _zeros(m),
            "b": _zeros(m),
            "k": "1",
            "A": {"kind": "identity"},
            "epsilon": 2,
        },
        "sample": {"seed": seed, "count": count, "radius": "2"},
    }
    if expect:
        cfg["expect"] = expect
    return cfg


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` in a new process that imports this
    checkout's polyharm."""
    env = {**os.environ, "PYTHONPATH": str(Path(polyharm.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _three_instance_config():
    """A valid config of three m = 4 inversions, with identity, permutation
    and Cayley matrices, and every sample key set."""
    perm = _inversion_config()
    perm["map"]["A"] = {"kind": "permutation", "data": {"perm": [1, 0, 2, 3], "signs": [1, -1, 1, 1]}}
    cay = _inversion_config()
    cay["map"]["A"] = {
        "kind": "cayley",
        "data": [
            ["0", "1/2", "0", "0"],
            ["-1/2", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
        ],
    }
    instances = [_inversion_config(), perm, cay]
    for cfg in instances:
        del cfg["sample"]
    sample = {"seed": 1, "count": 3, "radius": "2", "exclusion": "1/8", "points": [["1", "1/2", "0", "0"]]}
    return {"instances": instances, "sample": sample}


def _paths(node, prefix=()):
    """The path of every value in a JSON document, the root's included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


class TestLoadConfig:
    def test_single_instance(self, tmp_path):
        configured, plan = load_config(_write(tmp_path, _inversion_config()))
        assert len(configured) == 1
        inst = configured[0].instance
        assert inst.domain.name == "flat" and inst.map.epsilon == 2
        assert plan.seed == 5 and plan.count == 6

    def test_epsilon_one_rejected(self, tmp_path):
        cfg = _inversion_config()
        cfg["map"]["epsilon"] = 1
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_unit_b_hyperbolic_target_rejected(self, tmp_path):
        cfg = _inversion_config()
        cfg["target"] = {"model": "hyperbolic", "dim": 4}
        cfg["map"]["b"] = ["1", "0", "0", "0"]
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_instances_list_with_matrix_kinds(self, tmp_path):
        base = _inversion_config()
        perm = _inversion_config()
        perm["map"]["A"] = {"kind": "permutation", "data": {"perm": [1, 0, 2, 3], "signs": [1, -1, 1, 1]}}
        cay = _inversion_config()
        cay["map"]["A"] = {
            "kind": "cayley",
            "data": [
                ["0", "1/2", "0", "0"],
                ["-1/2", "0", "0", "0"],
                ["0", "0", "0", "0"],
                ["0", "0", "0", "0"],
            ],
        }
        doc = {"instances": [base, perm, cay], "sample": {"seed": 1, "count": 3}}
        configured, plan = load_config(_write(tmp_path, doc))
        assert len(configured) == 3

    def test_bad_rational_rejected(self, tmp_path):
        cfg = _inversion_config()
        cfg["map"]["k"] = "1/0"
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_paths(_three_instance_config()))[1:]), value=_JSON_VALUES)
    def test_one_value_mutation_loads_or_is_a_config_error(self, path, value):
        # whatever one value of a valid config becomes, loading it either
        # succeeds or is a usage error; no other exception escapes
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(_replaced(_three_instance_config(), path, value)))
            try:
                load_config(cfg)
            except ConfigError:
                pass


class TestSampling:
    def _instance(self, m=4):
        return ConformalInstance(
            SpaceFormModel.flat(m), SpaceFormModel.flat(m), MobiusMap.inversion(m)
        )

    def test_deterministic(self):
        inst = self._instance()
        plan = SamplePlan(seed=9, count=8)
        assert sample_points(plan, inst) == sample_points(plan, inst)

    def test_exclusion_zone_respected(self):
        inst = self._instance()
        plan = SamplePlan(seed=2, count=12, exclusion=rational(1, 2))
        for pt in sample_points(plan, inst):
            assert sum(v * v for v in pt.fractions()) > rational(1, 4)

    def test_points_are_distinct(self):
        # |x| > 33/10 leaves few admissible draws of the 3-d grid, so the
        # draw stream repeats some of them before it has found 12
        inst = self._instance(3)
        pts = sample_points(SamplePlan(seed=1, count=12, exclusion=rational(33, 10)), inst)
        assert len(set(pts)) == len(pts) == 12

    def test_hyperbolic_domain_stays_in_ball(self):
        inst = ConformalInstance(
            SpaceFormModel.hyperbolic(3),
            SpaceFormModel.flat(3),
            MobiusMap.inversion(3),
        )
        for pt in sample_points(SamplePlan(seed=3, count=10), inst):
            assert sum(v * v for v in pt.fractions()) < 1

    @pytest.mark.parametrize("c2", [-1, 0, 1])
    @pytest.mark.parametrize("eps", [0, 2])
    def test_ball_domain_draws_at_m20(self, c2, eps):
        # the draw cube shrinks like 1/sqrt(m) beyond m = 8; at 3/4 almost
        # every draw of 20 coordinates lands outside the unit ball
        for t in range(3):
            tag = f"polyharm:bh:0:20:-1:{c2}:{eps}:{t}"
            _, pts = _sweep_instance(tag, 20, -1, c2, eps, t, 5)
            assert len(pts) == 5 and all(sum(v * v for v in x.fractions()) < 1 for x in pts)

    def test_hyperbolic_target_cells_at_m96(self):
        # beyond m = 12 a hyperbolic target's b and k are sized from m: the
        # draws sized for m <= 12 leave no admissible point of the box here
        report = sweep_biharmonic(m_values=[96], pairs=[(-1, -1), (0, -1), (1, -1)], trials=2, points=2)
        assert report["all_match"]

    @pytest.mark.parametrize("m", [13, 16, 17, 64, 128])
    def test_hyperbolic_draws_are_sized_from_m(self, m):
        # |b| <= 1/2, and k small enough that |phi| < 1 on the draw box, whose
        # |x - a| is at most 3 ceil(sqrt m) (eps = 0), or off the sampler's
        # exclusion ball |x - a| <= 1/8 (eps = 2)
        c = math.isqrt(m - 1) + 1
        target = SpaceFormModel.hyperbolic(m)
        for eps, style in itertools.product((0, 2), (0, 1)):
            mmap = random_mobius(rng_for(f"sized-draws:{m}:{eps}:{style}"), m, target, eps, style)
            assert sum(v * v for v in mmap.b) <= Fraction(1, 4)
            if eps == 2:  # k / |x - a| < 8k <= 1/2
                assert 0 < 8 * mmap.k <= Fraction(1, 2), style
            else:  # k |x - a| <= 3ck < 1/2
                assert 0 < 3 * c * mmap.k < Fraction(1, 2), style

    def test_sweep_instance_validates_its_map_once(self, monkeypatch):
        # construction validates a map, so an instance built from it does not
        # check A again; drawn and configured maps share the integer check
        calls = []
        original = mobius.is_orthogonal_integers
        monkeypatch.setattr(mobius, "is_orthogonal_integers", lambda N, D: calls.append(N) or original(N, D))
        _sweep_instance("polyharm:test:validate-once", 4, 0, 0, 2, 2, 3)
        assert len(calls) == 1

    def test_sweep_instance_draws_one_map_and_names_the_cell(self, monkeypatch):
        # a sampler refusal is the cell's error after one map: no measured
        # first draw was refused, and a count the region cannot hold is
        # refused again for every redraw
        draws = []

        def counted(*args):
            draws.append(args)
            return random_mobius(*args)

        def starved(plan, instance):
            raise AdmissibleRegionError("found 2/3 admissible points within 4000 draws")

        monkeypatch.setattr("polyharm.verifier.random_mobius", counted)
        monkeypatch.setattr("polyharm.verifier.sample_points", starved)
        with pytest.raises(AdmissibleRegionError) as info:
            sweep_biharmonic(m_values=(5,), pairs=((-1, 1),), eps_values=(0,), trials=1, points=3)
        assert len(draws) == 1
        assert str(info.value) == "cell m=5 c1=-1 c2=1 eps=0: found 2/3 admissible points within 4000 draws"

    def test_explicit_points_validated(self):
        inst = self._instance()
        good = SamplePlan(points=((rational(1), 0, 0, 0),))
        assert sample_points(good, inst) == [IntegerPoint((1, 0, 0, 0), 1)]
        bad = SamplePlan(points=((rational(0), 0, 0, 0),))
        with pytest.raises(ConfigError, match="explicit point 0/1 0/1 0/1 0/1 is not admissible"):
            sample_points(bad, inst)

    def test_starved_region_raises(self):
        # unit b on a flat->hyperbolic instance leaves lambda <= 0 everywhere
        inst = ConformalInstance(
            SpaceFormModel.flat(3),
            SpaceFormModel.hyperbolic(3),
            MobiusMap.build(a=[0, 0, 0], b=[0, 0, 0], k=50, epsilon=0),
        )
        with pytest.raises(AdmissibleRegionError):
            sample_points(SamplePlan(seed=1, count=4, radius=rational(1, 8)), inst)

    def test_count_above_the_draw_lattice_is_refused_before_any_draw(self, monkeypatch):
        # the sampler draws n in [-16, 16]^m, 33^3 = 35937 points at m = 3:
        # no budget finds one more, so the plan and the sweep refuse it
        def refuse(*args):
            raise AssertionError("drew before refusing the count")

        monkeypatch.setattr(sampling, "_randint", refuse)
        monkeypatch.setattr("polyharm.verifier._randint", refuse)
        with pytest.raises(ConfigError, match="draw lattice holds 35937"):
            sample_points(SamplePlan(seed=1, count=33**3 + 1), self._instance(3))
        with pytest.raises(ConfigError, match="draw lattice holds 35937"):
            sweep_biharmonic(m_values=(4, 3), trials=1, points=33**3 + 1)

    def test_exhausted_lattice_raises_within_the_budget(self, monkeypatch):
        # the hyperbolic disc holds fewer than the 33^2 = 1089 lattice points
        # of m = 2: once each has been drawn, no further draw can add one,
        # and the sampler stops long before its 400 * 1089 draws
        calls = []
        monkeypatch.setattr(sampling, "_randint", lambda rng, lo, hi: calls.append(lo) or _randint(rng, lo, hi))
        inst = ConformalInstance(SpaceFormModel.hyperbolic(2), SpaceFormModel.flat(2), MobiusMap.inversion(2))
        with pytest.raises(AdmissibleRegionError, match="all 1089 lattice points"):
            sample_points(SamplePlan(seed=0, count=1089), inst)
        assert len(calls) // 2 < 400 * 1089 // 20


def _screen(instance, x, exclusion) -> bool:
    """The sampler's admissibility verdict on one explicit point."""
    try:
        sample_points(SamplePlan(points=(x,), exclusion=exclusion), instance)
    except ConfigError:
        return False
    return True


def _composed_screen(instance, x, exclusion) -> bool:
    """The same verdict from the composed factor: phi(x) through apply_point."""
    mmap = instance.map
    if mmap.epsilon == 2 and sum((xi - ai) ** 2 for xi, ai in zip(x, mmap.a)) <= exclusion**2:
        return False
    try:
        return conformal_factor_value(instance.domain, instance.target, mmap, x) > 0
    except PolyharmError:
        return False


def _target_boundary_point(mmap):
    """A point whose image lies on the unit sphere |phi| = 1 (the ball's rim)."""
    m = mmap.dim
    y = (rational(3, 5), rational(4, 5)) + (rational(0),) * (m - 2)
    v = tuple((yi - bi) / mmap.k for yi, bi in zip(y, mmap.b))
    A = fraction_matrix(*mmap.A_integers)
    at_v = tuple(sum(A[i][j] * v[i] for i in range(m)) for j in range(m))
    if mmap.epsilon == 2:  # u / |u|^2 = A^T v inverts to u = A^T v / |v|^2
        v_sq = sum(c * c for c in v)
        at_v = tuple(c / v_sq for c in at_v)
    return tuple(ai + c for ai, c in zip(mmap.a, at_v))


class TestImmutable:
    # the kernels rely on A staying the exactly orthogonal matrix validate
    # certified, and an instance holds the factor of its map
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: SpaceFormModel.flat(3), "dim"),
            (lambda: SpaceFormModel.flat(3), "curvature"),
            (lambda: MobiusMap.inversion(3), "A_integers"),
            (lambda: MobiusMap.inversion(3), "k"),
            (lambda: ConformalInstance(SpaceFormModel.flat(3), SpaceFormModel.flat(3), MobiusMap.inversion(3)), "map"),
            (lambda: ConformalInstance(SpaceFormModel.flat(3), SpaceFormModel.flat(3), MobiusMap.inversion(3)), "factor"),
            (lambda: SamplePlan(seed=1, count=3), "count"),
        ],
        ids=["model-dim", "model-curvature", "map-A_integers", "map-k", "instance-map", "instance-factor", "plan-count"],
    )
    def test_assignment_refused(self, make, field):
        obj = make()
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        assert getattr(obj, field) is before

    @pytest.mark.parametrize("route", ["drawn", "built", "configured", "unpickled"])
    def test_map_parameters_are_immutable(self, tmp_path, route):
        # A and a are held as tuples: no entry of a validated map can change
        if route == "configured":
            cfg = _inversion_config()
            cfg["map"]["A"] = {"kind": "cayley", "data": [["0", "1/2", "0", "0"], ["-1/2", "0", "0", "0"], ["0"] * 4, ["0"] * 4]}
            mmap = load_config(_write(tmp_path, cfg))[0][0].instance.map
        else:
            drawn = random_mobius(rng_for("immutable-map"), 4, SpaceFormModel.flat(4), 2, style=2)
            mmap = {
                "drawn": drawn,
                "built": MobiusMap.build(drawn.a, drawn.b, drawn.k, fraction_matrix(*drawn.A_integers), 2),
                "unpickled": pickle.loads(pickle.dumps(drawn)),
            }[route]
        before = (mmap.a, mmap.A_integers)
        with pytest.raises(TypeError):
            mmap.A_integers[0][0][0] += 1
        with pytest.raises(TypeError):
            mmap.a[0] = rational(7)
        assert (mmap.a, mmap.A_integers) == before


def _record_cases():
    """(valid record, field, invalid value, error) for each validated record."""
    flat, hyperbolic = SpaceFormModel.flat(3), SpaceFormModel.hyperbolic(3)
    drawn = random_mobius(rng_for("record-routes"), 3, hyperbolic, 2, style=2)
    unit_b = MobiusMap.build(a=[0, 0, 0], b=["3/5", "-4/5", "0"], k=1, epsilon=2)
    two_i = (((2, 0, 0), (0, 2, 0), (0, 0, 2)), 1)
    return {
        "model": (SpaceFormModel(3, 0), "curvature", 5, ShapeMismatchError),
        "plan": (SamplePlan(seed=1, count=3), "count", 0, ConfigError),
        "map": (drawn, "A_integers", two_i, MapValidationError),
        "instance": (ConformalInstance(flat, hyperbolic, drawn), "map", unit_b, MapValidationError),
    }


_COPIES = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    # protocols 0 and 1 rebuild a tuple subclass by tuple.__new__ unless the
    # record's own __reduce_ex__ routes them through the constructor
    **{
        f"pickle-{p}": lambda r, p=p: pickle.loads(pickle.dumps(r, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestRecordRoutes:
    """Every way of building a record runs its validation: the constructor,
    ``_replace`` (through ``_make``), and pickles at every protocol and
    copies (through ``__reduce_ex__``)."""

    @pytest.mark.parametrize("route", ["constructor", "replace", *_COPIES])
    @pytest.mark.parametrize("record", ["model", "plan", "map", "instance"])
    def test_route_validates(self, record, route):
        valid, field, bad, error = _record_cases()[record]
        cls, i = type(valid), valid._fields.index(field)
        if route == "constructor":
            n = len(valid.__getnewargs__())  # an instance takes no factor
            rebuild = lambda fields: cls(*fields[:n])
        elif route == "replace":
            rebuild = lambda fields: valid._replace(**{field: fields[i]})
        else:
            # the invalid record is smuggled past validation, as a corrupt
            # pickle or a hand-built tuple would carry it
            rebuild = lambda fields: _COPIES[route](tuple.__new__(cls, fields))
        with pytest.raises(error):
            rebuild(valid[:i] + (bad,) + valid[i + 1 :])
        twin = rebuild(tuple(valid))
        assert type(twin) is cls and twin == valid and hash(twin) == hash(valid)

    @pytest.mark.parametrize("route", ["constructor", "replace"])
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("seed", False),
            ("seed", 1.0),
            ("count", True),
            ("count", 2.5),
            ("count", "3"),
            ("radius", 0.5),
            ("radius", True),
            ("radius", "two"),
            ("radius", "1/0"),
            ("exclusion", 0.1),
            ("exclusion", "1/"),
        ],
    )
    def test_plan_field_types(self, field, bad, route):
        # seed and count are ints and not bools, radius and exclusion
        # rationals: ints, Fractions or "p/q" text (copies and pickles go
        # through the constructor, as test_route_validates shows)
        valid = SamplePlan(seed=1, count=3, radius="1/2", exclusion=0)
        with pytest.raises(ConfigError, match=field):
            if route == "constructor":
                SamplePlan(**{**valid._asdict(), field: bad})
            else:
                valid._replace(**{field: bad})

    def test_replaced_map_carries_its_factor(self):
        valid, *_ = _record_cases()["instance"]
        other = random_mobius(rng_for("record-routes-other"), 3, valid.target, 0, style=1)
        replaced = valid._replace(map=other)
        assert replaced.map is other
        assert replaced.factor == mobius.factor_quadratic(valid.target, other) != valid.factor
        with pytest.raises(ValueError, match="factor"):
            valid._replace(factor=replaced.factor)


# one call per value a record or sweep used to take unchecked: each ran with
# the value coerced or of the wrong type, or failed with a TypeError, a
# KeyError or, after a draw, a MapValidationError
_API_GAPS = {
    "model-float-curvature": (lambda: SpaceFormModel(4, 1.0), ShapeMismatchError),
    "model-bool-curvature": (lambda: SpaceFormModel(4, True), ShapeMismatchError),
    "model-float-dim": (lambda: SpaceFormModel(2.5, 0), ShapeMismatchError),
    "bih-float-pair": (lambda: sweep_biharmonic(pairs=((1.0, 0),)), ConfigError),
    "bih-bool-pair": (lambda: sweep_biharmonic(pairs=((True, 0),)), ConfigError),
    "bih-float-m": (lambda: sweep_biharmonic(m_values=(4.0,)), ConfigError),
    "bih-float-trials": (lambda: sweep_biharmonic(trials=1.5), ConfigError),
    "bih-float-eps": (lambda: sweep_biharmonic(eps_values=(2.0,)), ConfigError),
    "poly-float-order": (lambda: sweep_polyharmonic(orders=(1.0,)), ConfigError),
    "poly-fractional-order": (lambda: sweep_polyharmonic(orders=(2.5,)), ConfigError),
    "build-fractional-eps": (lambda: MobiusMap.build([0, 0, 0], [0, 0, 0], 1, epsilon=2.9), MapValidationError),
    "orders-fractional": (
        lambda: residuals.polyharmonic_orders(MobiusMap.inversion(3), (1.5,), (1, 2, 3)),
        DegreeError,
    ),
    "plan-float-point": (lambda: SamplePlan(points=((0.5, 0.25, 1),)), ConfigError),
    "plan-bool-point": (lambda: SamplePlan(points=((True, 1, 1),)), ConfigError),
    "plan-text-point": (lambda: SamplePlan(points=(("x", 1, 1),)), ConfigError),
    "plan-string-point": (lambda: SamplePlan(points=("111",)), ConfigError),
    "plan-string-points": (lambda: SamplePlan(points="111"), ConfigError),
    "plan-dict-point": (lambda: SamplePlan(points=({"1": 0, "0": 0, "2": 0},)), ConfigError),
    "plan-dict-points": (lambda: SamplePlan(points={(1, 1, 1): 0}), ConfigError),
    "rational-bool": (lambda: rational(True), TypeError),
    "permutation-bool": (lambda: mobius.signed_permutation_integers([True, 0]), MapValidationError),
    "signs-bool": (lambda: mobius.signed_permutation_integers([1, 0], [True, -1]), MapValidationError),
}


class TestOneValidationPath:
    """Records and sweeps refuse a wrong value themselves, so the Python API
    refuses what a config file is refused, by the same rule."""

    @pytest.mark.parametrize("case", list(_API_GAPS))
    def test_api_refuses(self, case):
        call, error = _API_GAPS[case]
        with pytest.raises(error):
            call()

    def test_plan_holds_fractions(self):
        plan = SamplePlan(radius="1/2", exclusion=0, points=(("1/2", 0, Fraction(3, 4)),))
        assert plan.radius == Fraction(1, 2) and plan.exclusion == 0 and plan.points == ((Fraction(1, 2), 0, Fraction(3, 4)),)
        assert {type(v) for v in (plan.radius, plan.exclusion, *plan.points[0])} == {Fraction}
        assert SamplePlan().exclusion == Fraction(1, 8) and type(SamplePlan().exclusion) is Fraction


# small valid sweep calls; the mutations below replace one argument, or the
# one entry of a window, and never ask for a large trials, points or m
_SMALL_SWEEPS = {
    "biharmonic": (
        sweep_biharmonic,
        {"m_values": (4,), "pairs": ((0, 1),), "eps_values": (2,), "trials": 1, "seed": 0, "points": 2,
         "mode": EXACT, "tol": residuals.DEFAULT_FLOAT_TOL},
    ),
    "polyharmonic": (
        sweep_polyharmonic,
        {"orders": (2,), "m_values": (4,), "trials": 1, "seed": 0, "points": 1,
         "mode": EXACT, "tol": residuals.DEFAULT_FLOAT_TOL},
    ),
}
_SWEEP_VALUES = (4, 4.0, True, "4", None, 2.5, -1)


def _sweep_mutations():
    """(sweep, argument, value, whether value replaces one window entry)."""
    for sweep, (_, base) in _SMALL_SWEEPS.items():
        for arg, valid in base.items():
            for value in _SWEEP_VALUES:
                yield pytest.param(sweep, arg, value, False, id=f"{sweep}-{arg}-{value!r}")
                if isinstance(valid, tuple):
                    yield pytest.param(sweep, arg, value, True, id=f"{sweep}-{arg}-entry-{value!r}")


class TestSweepArguments:
    @pytest.mark.parametrize("sweep, arg, value, entry", list(_sweep_mutations()))
    def test_one_argument_mutation_reports_or_is_a_polyharm_error(self, sweep, arg, value, entry):
        # whatever one argument becomes, the sweep reports or raises a usage
        # error, and a value that is not an int never yields a report
        fn, base = _SMALL_SWEEPS[sweep]
        replaced = value
        if entry:
            replaced = ((value, base[arg][0][1]),) if arg == "pairs" else (value,)
        try:
            report = fn(**{**base, arg: replaced})
        except PolyharmError:
            return
        assert type(value) is int and report["cells"]


    @pytest.mark.parametrize(
        "window",
        [{"pairs": CURVATURE_PAIRS + ((5, 0),)}, {"pairs": ((0, -2),)}, {"eps_values": (0, 1)}, {"eps_values": (2, 3)}],
        ids=["curvature-5", "curvature-minus-2", "eps-1", "eps-3"],
    )
    def test_curvature_or_eps_outside_the_family_is_refused_before_any_draw(self, monkeypatch, window):
        seen = _spy(monkeypatch, "evaluate_residuals")
        with pytest.raises(ConfigError):
            sweep_biharmonic(**window)
        assert seen == []


def _readme_config() -> str:
    """The JSON example under README's "### Config format" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Config format") :]
    return section[section.index("```json") + len("```json") : section.index("```", section.index("```json") + 1)]


def _refusal_config():
    """A valid config that sets every value the cases below replace."""
    cfg = _inversion_config()
    cfg["map"]["A"] = {"kind": "permutation", "data": {"perm": [1, 0, 2, 3], "signs": [1, -1, 1, 1]}}
    cfg["sample"] = {"seed": 1, "count": 2, "radius": "2", "exclusion": "1/8", "points": [["1", "0", "0", "0"]]}
    return cfg


_JSON_REFUSALS = [
    *((("domain", "dim"), v) for v in (4.0, True, "4")),
    *((("map", "epsilon"), v) for v in (2.0, True)),
    *((("sample", key), v) for key in ("seed", "count") for v in (1.0, True, "1")),
    *((("map", "A", "data", key, 0), v) for key in ("perm", "signs") for v in (True, 1.0)),
    *((path, v) for path in (("map", "a", 0), ("map", "b", 0), ("map", "k")) for v in (0.5, True)),
    *((("sample", key), v) for key in ("radius", "exclusion") for v in (0.5, True, "two")),
    *((("sample", "points", 0, 0), v) for v in (0.5, True, "x")),
    # a string where a list belongs, once read one character per entry
    *((("map", key), "0000") for key in ("a", "b")),
    (("map", "A"), {"kind": "matrix", "data": ["1000", "0100", "0010", "0001"]}),
    (("map", "A"), {"kind": "cayley", "data": ["0000"] * 4}),
    *((("sample", "points"), v) for v in ("1000", ["1000"], [{"1": "0", "0": "0", "00": "0", "000": "0"}])),
]


class TestConfigRefusals:
    def test_readme_config_checks(self, tmp_path, capsys):
        path = tmp_path / "readme.json"
        path.write_text(_readme_config())
        assert main(["check", str(path)]) == 0

    def test_refusal_base_checks(self, tmp_path, capsys):
        assert main(["check", str(_write(tmp_path, _refusal_config()))]) == 0

    @pytest.mark.parametrize("path, value", _JSON_REFUSALS, ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v in _JSON_REFUSALS])
    def test_wrong_json_value_is_a_usage_error(self, tmp_path, capsys, path, value):
        cfg = _write(tmp_path, _replaced(_refusal_config(), path, value))
        assert main(["check", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err


class TestReportMaps:
    """The report's map, a, b and A formatted from the map's integers,
    against the text format_rational gives each entry as a Fraction."""

    @staticmethod
    def _oracle(mmap):
        N, D = mmap.A_integers
        return [[format_rational(Fraction(n, D)) for n in row] for row in N]

    def test_drawn_maps(self):
        rng = rng_for("report-map-oracle")
        dens = set()
        for m in (3, 4, 5, 6, 7, 8, 12, 16):
            for (c1, c2), eps, style in itertools.product(CURVATURE_PAIRS, (0, 2), (0, 1, 2)):
                mmap = random_mobius(rng, m, SpaceFormModel(m, c2), eps, style)
                assert _map_dict(mmap)["A"] == self._oracle(mmap), (m, c1, c2, eps, style)
                dens.add(mmap.A_integers[1])
        assert 1 in dens and len(dens) > 1

    def test_drawn_map_parameters(self):
        # a and b printed from their integers, k from its rational: the text
        # format_rational gives the rationals, beyond the pinned m <= 8 too
        seen = set()
        for m, c2, eps in itertools.product(range(3, 17), (-1, 0, 1), (0, 2)):
            tag = f"report-map-parameters:{m}:{c2}:{eps}"
            mmap = random_mobius(rng_for(tag), m, SpaceFormModel(m, c2), eps, style=1)
            text = _map_dict(mmap)
            for key, values in (("a", mmap.a), ("b", mmap.b)):
                assert text[key] == [format_rational(v) for v in values], (key, m, c2, eps)
                seen.update(v.split("/")[1] for v in text[key])
            assert text["k"] == format_rational(mmap.k)
        assert {"1", "2", "3", "4", "7", "8"} <= seen

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "matrix", "data": [["3/5", "0", "-4/5"], ["0", "-1", "0"], ["4/5", "0", "3/5"]]},
            {"kind": "matrix", "data": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "1"]]},
            {"kind": "cayley", "data": [["0", "1/2", "0"], ["-1/2", "0", "0"], ["0", "0", "0"]]},
            {"kind": "permutation", "data": {"perm": [2, 0, 1], "signs": [-1, 1, -1]}},
        ],
        ids=["matrix", "matrix-D1", "cayley", "permutation"],
    )
    def test_configured_maps(self, tmp_path, entry):
        cfg = _inversion_config(m=3)
        cfg["map"]["A"] = entry
        mmap = load_config(_write(tmp_path, cfg))[0][0].instance.map
        text = _map_dict(mmap)["A"]
        assert text == self._oracle(mmap)
        flat = [v for row in text for v in row]
        assert "0/1" in flat and any(v.startswith("-") for v in flat)


class TestModeAndTol:
    """An unknown mode or a tol outside (0, 1) is a ConfigError at every
    entry point of the API, not only behind the CLI's flags."""

    BAD = [("Float", 1e-9), ("flaot", 1e-9), ("nope", 1e-9), (EXACT, 1.0), (FLOAT, 0.0), (FLOAT, float("nan"))]

    @staticmethod
    def _instance():
        return ConformalInstance(SpaceFormModel.flat(4), SpaceFormModel.flat(4), MobiusMap.inversion(4))

    @pytest.mark.parametrize("mode,tol", BAD)
    def test_run_check(self, mode, tol):
        with pytest.raises(ConfigError):
            run_check(self._instance(), SamplePlan(seed=1, count=2), mode=mode, tol=tol)

    @pytest.mark.parametrize("mode,tol", BAD)
    def test_check_report_body(self, mode, tol):
        configured = [ConfiguredInstance(self._instance(), "proper-biharmonic")]
        with pytest.raises(ConfigError):
            check_report_body(configured, SamplePlan(seed=1, count=2), mode=mode, tol=tol)

    @pytest.mark.parametrize("mode,tol", BAD)
    def test_sweep_biharmonic(self, mode, tol):
        with pytest.raises(ConfigError):
            sweep_biharmonic(m_values=[4], trials=1, points=1, mode=mode, tol=tol)

    @pytest.mark.parametrize("mode,tol", BAD)
    def test_sweep_polyharmonic(self, mode, tol):
        with pytest.raises(ConfigError):
            sweep_polyharmonic(orders=[1], m_values=[4], mode=mode, tol=tol)

    @pytest.mark.parametrize("mode,tol", BAD)
    def test_selftest(self, mode, tol):
        with pytest.raises(ConfigError):
            selftest(mode=mode, tol=tol)


class TestSamplerScreen:
    """The sampler reads the sign of lambda off the instance's P/Q factor;
    pinned here to the screen that composes phi and evaluates lambda."""

    def test_matches_composed_factor(self):
        rng = rng_for("sampler-screen")
        seen = {"admitted": 0, "rejected": 0, "x=a": 0, "outside-ball": 0, "target-rim": 0}
        for m, c1, c2, eps in itertools.product((3, 5), (-1, 0, 1), (-1, 0, 1), (0, 2)):
            domain, target = SpaceFormModel(m, c1), SpaceFormModel(m, c2)
            drawn = random_mobius(rng, m, target, eps, style=rng.randint(0, 2))
            for k in (drawn.k, -drawn.k):  # a config may give k < 0
                mmap = MobiusMap.build(drawn.a, drawn.b, k, fraction_matrix(*drawn.A_integers), eps)
                inst = ConformalInstance(domain, target, mmap)
                points = [
                    tuple(rational(rng.randint(-32, 32), 16) for _ in range(m)) for _ in range(6)
                ]
                special = {"x=a": mmap.a}
                if c1 == -1:
                    special["outside-ball"] = (rational(5, 4),) + mmap.a[1:]
                if c2 == -1:
                    special["target-rim"] = _target_boundary_point(mmap)
                    assert sum(v * v for v in apply_point(mmap, special["target-rim"])) == 1
                for exclusion in (rational(0), rational(1, 8)):
                    for x in points + list(special.values()):
                        got = _screen(inst, x, exclusion)
                        assert got == _composed_screen(inst, x, exclusion), (
                            m, c1, c2, eps, k, x, exclusion,
                        )
                        seen["admitted" if got else "rejected"] += 1
                    for name, x in special.items():
                        if name != "x=a" or eps == 2:
                            assert not _screen(inst, x, exclusion), (name, x)
                        seen[name] += 1
        assert all(seen.values()), seen


    def test_ball_rim_is_outside_the_chart(self):
        # |x| = 1 is the boundary of the ball chart, not a point of it
        rng = rng_for("sampler-rim")
        for m, c2, eps in itertools.product((3, 4), (-1, 0, 1), (0, 2)):
            domain, target = SpaceFormModel(m, -1), SpaceFormModel(m, c2)
            inst = ConformalInstance(domain, target, random_mobius(rng, m, target, eps, style=1))
            tail = (rational(0),) * (m - 2)
            for x in [(rational(1), rational(0)) + tail, (rational(3, 5), rational(-4, 5)) + tail]:
                assert not _screen(inst, x, rational(0))
                assert not _composed_screen(inst, x, rational(0))

    def test_draws_match_rational_sampler(self):
        """Integer screening keeps the draws, the accepted points and their
        order of a sampler that forms every draw as a rational point."""
        rng = rng_for("sampler-draws")
        accepted = 0
        for m, c1, c2, eps in itertools.product((3, 5), (-1, 0, 1), (-1, 0, 1), (0, 2)):
            domain, target = SpaceFormModel(m, c1), SpaceFormModel(m, c2)
            inst = ConformalInstance(domain, target, random_mobius(rng, m, target, eps, style=2))
            for radius in (None, rational(1), rational(5, 3)):
                plan = SamplePlan(seed=rng.randint(0, 99), count=3, radius=radius)
                try:
                    got = [x.fractions() for x in sample_points(plan, inst)]
                except AdmissibleRegionError:
                    got = None
                assert got == _rational_draws(plan, inst), (m, c1, c2, eps, radius)
                accepted += len(got or ())
        assert accepted


def _rational_draws(plan, instance):
    """The draws radius * n/16 as rational points, screened by the composed factor."""
    radius = plan.radius
    if radius is None:
        radius = rational(3, 4) if instance.domain.curvature == -1 else rational(2)
    rng = random.Random(f"polyharm:points:{plan.seed}")
    found, seen = [], set()
    for _ in range(400 * plan.count):
        x = tuple(radius * rational(rng.randint(-16, 16), 16) for _ in range(instance.dim))
        if x in seen:
            continue
        seen.add(x)
        if _composed_screen(instance, x, rational(plan.exclusion)):
            found.append(x)
            if len(found) == plan.count:
                return found
    return None


# every (lo, hi) the package draws integers from
_DRAW_RANGES = [
    (-16, 16), (-8, 8), (-2, 2), (-1, 1), (2, 3), (2, 4), (7, 8), (1, 3), (6, 8), (13, 16), (1, 6), (0, 2**31),
]


def _randint_admissible(instance, N, den, exclusion) -> bool:
    """x = N/den admissible, decided on integers as the sampler did before
    its screen was hoisted: ball, exclusion ball round a, sign of kappa Q."""
    if instance.domain.curvature < 0 and sum(v * v for v in N) >= den * den:
        return False
    fq = instance.factor
    L = den * fq.a_den
    U = [v * fq.a_den - den * a for v, a in zip(N, fq.a_num)]
    u_sq = sum(v * v for v in U)
    if instance.map.epsilon == 2 and u_sq * exclusion.denominator**2 <= (exclusion.numerator * L) ** 2:
        return False
    q = fq.value * L * L + 2 * L * sum(g * v for g, v in zip(fq.linear, U)) + fq.square * u_sq
    return fq.kappa > 0 and q > 0


def _randint_sample_points(plan, instance):
    """The sampler's drawn path through ``random.Random.randint``."""
    radius = rational(plan.radius) if plan.radius is not None else sampling._default_radius(instance.domain)
    den = 16 * radius.denominator
    rng = random.Random(f"polyharm:points:{plan.seed}")
    found, seen = [], set()
    for _ in range(400 * plan.count):
        n = tuple(rng.randint(-16, 16) for _ in range(instance.dim))
        if n in seen:
            continue
        seen.add(n)
        N = [radius.numerator * v for v in n]
        if _randint_admissible(instance, N, den, rational(plan.exclusion)):
            found.append(IntegerPoint(N, den))
            if len(found) == plan.count:
                return found
    return None


def _randint_random_mobius(rng, m, target, epsilon, style):
    """``random_mobius`` through ``random.Random.randint``, with the Cayley
    input formed as rows of rationals."""

    def rand_rational(max_num, den_lo, den_hi):
        return rational(rng.randint(-max_num, max_num), rng.randint(den_lo, den_hi))

    a = tuple(rand_rational(2, 2, 4) for _ in range(m))
    if target.curvature == -1:
        b = tuple(rand_rational(1, 7, 8) for _ in range(m))
        if epsilon == 2:
            k = rational(rng.randint(1, 3), rng.randint(6, 8))
        else:
            k = rational(1, rng.randint(13, 16))
    else:
        b = tuple(rand_rational(2, 2, 4) for _ in range(m))
        k = rational(rng.randint(1, 6), rng.randint(1, 6))
    style %= 3
    if style == 0:
        A = None
    elif style == 1:
        perm = list(range(m))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(m)]
        A = fraction_matrix(mobius.signed_permutation_integers(perm, signs), 1)
    else:
        rows = [[rational(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                rows[i][j] = rand_rational(1, 2, 3)
                rows[j][i] = -rows[i][j]
        A = fraction_matrix(*mobius.cayley_integers(rows))
    return MobiusMap.build(a, b, k, A, epsilon)


class TestStreamIdentity:
    """Every integer draw goes through ``sampling._randint``, which must
    consume the generator's stream as ``random.Random.randint`` does: the
    same seeds draw the same maps and points."""

    @pytest.mark.parametrize("lo,hi", _DRAW_RANGES)
    def test_randint_matches_random(self, lo, hi):
        for seed in (0, 17, "polyharm:points:3"):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_randint(ours, lo, hi) for _ in range(10_000)] == [
                theirs.randint(lo, hi) for _ in range(10_000)
            ]
            assert ours.getstate() == theirs.getstate()

    def test_interleaved_ranges_keep_the_stream(self):
        ours, theirs = random.Random("interleaved"), random.Random("interleaved")
        for lo, hi in _DRAW_RANGES * 500:
            assert _randint(ours, lo, hi) == theirs.randint(lo, hi)
        assert ours.getstate() == theirs.getstate()

    def test_sample_points_match_randint_loop(self):
        rng = rng_for("stream-points")
        drawn = 0
        for m, c1, c2, eps in itertools.product((3, 5, 9, 12), (-1, 0, 1), (-1, 0, 1), (0, 2)):
            domain, target = SpaceFormModel(m, c1), SpaceFormModel(m, c2)
            inst = ConformalInstance(domain, target, random_mobius(rng, m, target, eps, style=m))
            for radius in (None, rational(3, 5)):
                plan = SamplePlan(seed=rng.randint(0, 2**31), count=3, radius=radius, exclusion=rational(1, 8))
                try:
                    got = sample_points(plan, inst)
                except AdmissibleRegionError:
                    got = None
                assert got == _randint_sample_points(plan, inst), (m, c1, c2, eps, radius)
                drawn += len(got or ())
        assert drawn

    def test_drawn_maps_match_randint_draws(self):
        for m, c2, eps, style in itertools.product((3, 4, 7, 12), (-1, 0, 1), (0, 2), (0, 1, 2)):
            target = SpaceFormModel(m, c2)
            tag = f"stream-maps:{m}:{c2}:{eps}:{style}"
            ours, theirs = random.Random(tag), random.Random(tag)
            for _ in range(3):
                assert random_mobius(ours, m, target, eps, style) == _randint_random_mobius(theirs, m, target, eps, style)
            assert ours.getstate() == theirs.getstate()

    def test_cayley_over_any_denominator(self):
        # the pair (N', D) is the reduced Cayley transform whatever d
        # represents S, so the draw's 6 S over 6 gives what S itself gives
        rng = rng_for("cayley-denominators")
        for m in (2, 3, 5, 8):
            S = [[rational(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    S[i][j] = rational(rng.randint(-3, 3), rng.randint(1, 5))
                    S[j][i] = -S[i][j]
            N, d = mobius.integer_matrix(S)
            want = mobius.cayley_integers(S)
            for scale in (1, 2, 6):
                assert mobius.cayley_bareiss([[scale * v for v in row] for row in N], scale * d) == want


class TestRunCheck:
    def test_inversion_m4_proper_biharmonic(self):
        inst = ConformalInstance(
            SpaceFormModel.flat(4), SpaceFormModel.flat(4), MobiusMap.inversion(4)
        )
        out = run_check(inst, SamplePlan(seed=1, count=6))
        assert out["verdict"] == "proper-biharmonic"
        assert not out["warnings"]

    def test_sphere_to_sphere_not_biharmonic(self):
        mmap = MobiusMap.build(a=[0, 0, 0, 0, 0], b=[0, 0, 0, 0, 0], k="1/2", epsilon=2)
        inst = ConformalInstance(SpaceFormModel.sphere(5), SpaceFormModel.sphere(5), mmap)
        out = run_check(inst, SamplePlan(seed=1, count=6))
        assert out["verdict"] == "not-biharmonic"

    def test_affine_flat_map_harmonic(self):
        mmap = MobiusMap.build(a=[0, 0, 0, 0], b=[1, 0, 0, 0], k=2, epsilon=0)
        inst = ConformalInstance(SpaceFormModel.flat(4), SpaceFormModel.flat(4), mmap)
        out = run_check(inst, SamplePlan(seed=1, count=4))
        assert out["verdict"] == "harmonic"

    def test_expectation_mismatch_recorded(self):
        inst = ConformalInstance(
            SpaceFormModel.flat(5), SpaceFormModel.flat(5), MobiusMap.inversion(5)
        )
        out = run_check(inst, SamplePlan(seed=1, count=4), expect="proper-biharmonic")
        assert out["verdict"] == "not-biharmonic" and out["match"] is False


class TestSweeps:
    def test_biharmonic_small_window_matches_golden(self):
        body = sweep_biharmonic(m_values=(3, 4), trials=1, points=3, seed=4)
        golden = {
            (c["m"], c["c1"], c["c2"], c["epsilon"]): c
            for c in json.loads((GOLDEN / "biharmonic_truth_table.json").read_text())
        }
        assert body["all_match"]
        for cell in body["cells"]:
            g = golden[(cell["m"], cell["c1"], cell["c2"], cell["epsilon"])]
            assert cell["expected_proper"] == g["proper_biharmonic"]
            proper = all(t["proper"] for t in cell["trials"])
            assert proper == g["proper_biharmonic"]
            if "verdict" in g:
                assert cell["verdict"] == g["verdict"]

    @pytest.mark.parametrize("kwargs", [{}, {"m_values": range(3, 11), "seed": 7}], ids=["default", "m3-10-seed7"])
    def test_float_sweep_agrees_trial_by_trial(self, kwargs):
        # every float verdict of the table, map by map, is the exact one
        assert sweep_biharmonic(mode=FLOAT, **kwargs) == sweep_biharmonic(**kwargs)

    def test_expected_proper_rule_against_golden(self):
        for c in json.loads((GOLDEN / "biharmonic_truth_table.json").read_text()):
            assert (
                expected_proper_biharmonic(c["m"], c["c1"], c["c2"], c["epsilon"])
                == c["proper_biharmonic"]
            )

    def test_affine_flat_cell_is_harmonic_not_proper(self):
        body = sweep_biharmonic(m_values=(4,), pairs=((0, 0),), eps_values=(0,), trials=2, points=3)
        (cell,) = body["cells"]
        assert cell["verdict"] == "harmonic" and not cell["expected_proper"] and cell["match"]

    def test_curved_domain_m4_not_proper(self):
        body = sweep_biharmonic(m_values=(4,), pairs=((1, 1), (1, 0)), eps_values=(2,), trials=1, points=3)
        for cell in body["cells"]:
            assert not cell["expected_proper"] and cell["match"]

    def test_polyharmonic_window_matches_golden(self):
        body = sweep_polyharmonic(orders=(1, 2, 3), m_values=(3, 4, 5, 6), seed=1)
        golden = {
            (c["order"], c["m"]): c
            for c in json.loads((GOLDEN / "polyharmonic_truth_table.json").read_text())
        }
        assert body["all_match"]
        for cell in body["cells"]:
            g = golden[(cell["order"], cell["m"])]
            assert cell["expected_zero"] == g["zero"]
            assert cell["expected_proper"] == g["proper"]
            t = cell["trials"][0]
            assert t["zero"] == g["zero"] and t["proper"] == g["proper"]
            assert t["closed_form_match"]

    def test_sweep_reads_the_public_polyharmonic_evaluator(self, monkeypatch):
        # the sweep's Delta^k phi comes from residuals.polyharmonic_orders:
        # a perturbation there must reach the cell's verdict
        original = residuals.polyharmonic_orders

        def perturbed(mmap, orders, x):
            out = original(mmap, orders, x)
            for value in out.values():
                value.terms = [tuple(v + 1 for v in value.terms[0]), *value.terms[1:]]
            return out

        assert sweep_polyharmonic(orders=(2,), m_values=(4,))["all_match"]
        monkeypatch.setattr(residuals, "polyharmonic_orders", perturbed)
        (cell,) = sweep_polyharmonic(orders=(2,), m_values=(4,))["cells"]
        assert not cell["trials"][0]["zero"] and not cell["match"]

    @staticmethod
    def _one_factor_off(original):
        # (m - 2k) read as (m - 2k - 1), the product's last factor; a zero
        # cell with m < 2k keeps another zero factor, so the window below
        # holds none
        def off(m, order):
            return -2 * order * (m - 2 * order - 1) * (original(m, order - 1) if order > 1 else 1)

        return off

    @staticmethod
    def _one_numerator_off(original):
        def off(m, top):
            N = original(m, top)
            return N[:-1] + (N[-1] + 1,)

        return off

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("name, perturb", [("closed_form_coefficient", "_one_factor_off"),
                                               ("_inversion_numerators", "_one_numerator_off")])
    def test_closed_form_cross_check_runs(self, monkeypatch, mode, name, perturb):
        # the closed form and the recurrence are two routes: one factor of
        # the closed form, or the N_k of the recurrence, off by one turns
        # every inversive cell's cross-check False; the sweep runs first, so
        # the patched N_k reaches it past the cached ones
        window = dict(orders=(1, 2, 3), m_values=(5, 6, 7), trials=2, mode=mode)
        assert sweep_polyharmonic(**window)["all_match"]
        monkeypatch.setattr(residuals, name, getattr(self, perturb)(getattr(residuals, name)))
        cells = sweep_polyharmonic(**window)["cells"]
        assert len(cells) == 9 and not any(c["match"] for c in cells)
        assert not any(t["closed_form_match"] for c in cells for t in c["trials"])

    def test_order_eight_at_m16(self):
        # past the default window: the (s, q) recurrence costs the same at any m
        body = sweep_polyharmonic(orders=(8,), m_values=(16,))
        assert body["all_match"]
        assert body["cells"][0]["trials"][0]["zero"] and body["cells"][0]["trials"][0]["proper"]

    def test_expected_zero_rule_against_golden(self):
        for c in json.loads((GOLDEN / "polyharmonic_truth_table.json").read_text()):
            assert expected_polyharmonic_zero(c["m"], c["order"]) == c["zero"]

    def test_odd_dimensions_never_vanish(self):
        body = sweep_polyharmonic(orders=(2, 4), m_values=(3, 5, 7), seed=2)
        for cell in body["cells"]:
            assert not cell["trials"][0]["zero"] and cell["match"]


    @pytest.mark.parametrize(
        "order, m, seed",
        [(5, 4, 25), (5, 4, 34), (5, 4, 42), (4, 4, 35), (3, 4, 342), (3, 4, 1297)],
    )
    def test_float_zero_cells_judged_against_term_scale(self, order, m, seed):
        # near the pole |Delta^k phi| rounds above an absolute 1e-9 on these
        # seeds; relative to the terms that cancel it is at rounding level
        body = sweep_polyharmonic(
            orders=(order,), m_values=(m,), trials=1, seed=seed, points=1, mode=FLOAT
        )
        (cell,) = body["cells"]
        (t,) = cell["trials"]
        assert t["zero"] is True
        assert t["proper"] is (m == 2 * order)
        assert t["closed_form_match"] is True
        assert cell["match"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_values": ()},
            {"m_values": (2, 3)},
            {"pairs": ()},
            {"eps_values": ()},
            {"trials": 0},
            {"points": 0},
        ],
    )
    def test_degenerate_biharmonic_arguments_rejected(self, kwargs):
        args = {"m_values": (4,), "pairs": ((0, 0),), "eps_values": (2,), "trials": 1, "points": 1}
        args.update(kwargs)
        with pytest.raises(ConfigError):
            sweep_biharmonic(**args)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"orders": ()},
            {"m_values": ()},
            {"orders": (0, 1)},
            {"m_values": (2, 3)},
            {"trials": 0},
            {"points": 0},
        ],
    )
    def test_degenerate_polyharmonic_arguments_rejected(self, kwargs):
        args = {"orders": (1,), "m_values": (3,), "trials": 1, "points": 1}
        args.update(kwargs)
        with pytest.raises(ConfigError):
            sweep_polyharmonic(**args)


class TestSelftest:
    def test_polyharmonic_draws_are_the_sweeps(self, monkeypatch):
        # the sweep prints the map and first point _polyharmonic_trial draws
        # for its tag, and the polyharmonic battery draws through it too
        (cell,) = sweep_polyharmonic(orders=(2,), m_values=(5,), trials=3, seed=7, points=2)["cells"]
        for t, trial in enumerate(cell["trials"]):
            mmap, pts = _polyharmonic_trial(f"polyharm:ph:7:2:5:{t}", 5, t, 2)
            assert (trial["map"], trial["point"]) == (_map_dict(mmap), _point_list(pts[0]))
        tags = []

        def spy(tag, *args):
            tags.append(tag)
            return _polyharmonic_trial(tag, *args)

        monkeypatch.setitem(_polyharmonic_battery.__globals__, "_polyharmonic_trial", spy)
        assert _polyharmonic_battery(EXACT, residuals.DEFAULT_FLOAT_TOL)[0]
        assert tags == [f"polyharm:selftest:ph:{m}:{k}" for m in (3, 4, 6) for k in (1, 2)]
        imported = {
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(ast.parse(Path(_polyharmonic_battery.__code__.co_filename).read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & {"random", "sampling"}

    def test_passes_in_exact_mode(self):
        body = selftest()
        assert body["all_ok"], body

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_sign_mutation_detected(self, monkeypatch, mode):
        # flip the energy-gradient term of the second necessary condition,
        # through the sign of the Gamma pair on (X, G) it alone reads there;
        # the identity chain battery must catch it in either mode
        original = residuals._nd2_from_geometry

        def mutated(g):
            g.Gamma = tuple(-v for v in g.Gamma)
            try:
                return original(g)
            finally:
                g.Gamma = tuple(-v for v in g.Gamma)

        monkeypatch.setattr(residuals, "_nd2_from_geometry", mutated)
        body = selftest(mode=mode)
        failed = {c["name"] for c in body["checks"] if not c["ok"]}
        assert "residual-identity-chain" in failed

    def test_float_tolerance_misuse_flagged(self):
        body = selftest(mode=FLOAT, tol=1e-15)
        failed = {c["name"] for c in body["checks"] if not c["ok"]}
        assert "float-separation" in failed

    def test_float_mode_passes_with_default_tolerance(self):
        body = selftest(mode=FLOAT)
        assert body["all_ok"], body


def _spy(monkeypatch, name: str) -> list:
    """Record the point each call of residuals.<name> is handed."""
    original = getattr(residuals, name)
    seen = []

    def spy(first, second, *rest, **kwargs):
        seen.append(rest[0] if name == "polyharmonic_orders" else second)
        return original(first, second, *rest, **kwargs)

    monkeypatch.setattr(residuals, name, spy)
    return seen


_RESIDUAL_FUNCTIONS = ("_cl_from_geometry", "_sdl_from_geometry", "_nd_from_geometry", "_nd2_from_geometry")


def _count_residual_calls(monkeypatch) -> dict:
    """Count the calls of the residuals module's function for each residual."""
    counts = dict.fromkeys(_RESIDUAL_FUNCTIONS, 0)

    def counted(name, original):
        def form(g):
            counts[name] += 1
            return original(g)

        return form

    for name in _RESIDUAL_FUNCTIONS:
        monkeypatch.setattr(residuals, name, counted(name, getattr(residuals, name)))
    return counts


class TestResidualsOnDemand:
    """A residual is formed only when read: a verdict reads CL, the flag and
    SDL, a check report prints all four."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_sweep_forms_neither_necessary_condition(self, monkeypatch, mode):
        counts = _count_residual_calls(monkeypatch)
        body = sweep_biharmonic(m_values=(4, 5), pairs=((0, 1), (1, 1)), eps_values=(0, 2), trials=1, points=2, mode=mode)
        assert body["all_match"]
        assert counts["_cl_from_geometry"] > 0 and counts["_sdl_from_geometry"] > 0
        assert counts["_nd_from_geometry"] == counts["_nd2_from_geometry"] == 0

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_check_forms_all_four_per_point(self, monkeypatch, mode):
        counts = _count_residual_calls(monkeypatch)
        inst = ConformalInstance(
            SpaceFormModel.flat(4), SpaceFormModel.sphere(4), MobiusMap.inversion(4)
        )
        out = run_check(inst, SamplePlan(seed=2, count=3), mode=mode)
        assert len(out["points"]) == 3
        assert counts == dict.fromkeys(_RESIDUAL_FUNCTIONS, 3)


class TestProgressLog:
    def test_sweeps_log_one_timed_line_per_cell(self, caplog):
        with caplog.at_level(logging.INFO, logger="polyharm"):
            sweep_biharmonic(m_values=(3, 4), pairs=((0, 0),), eps_values=(0, 2), trials=1, points=1)
            sweep_polyharmonic(orders=(1, 2), m_values=(3,))
        lines = [r.getMessage() for r in caplog.records if r.name == "polyharm" and r.levelno == logging.INFO]
        assert sum(line.startswith("biharmonic cell m=") for line in lines) == 4
        assert sum(line.startswith("polyharmonic cell k=") for line in lines) == 2
        assert len(lines) == 6 and all(re.search(r"\(\d+\.\d{3}s\)$", line) for line in lines), lines

    def test_check_logs_one_timed_line_per_instance(self, caplog):
        configured, plan = load_config(GOLDEN / "curved_check.json")
        with caplog.at_level(logging.INFO, logger="polyharm"):
            body = check_report_body(configured, plan.with_overrides(count=2))
        lines = [r.getMessage() for r in caplog.records if r.name == "polyharm" and r.levelno == logging.INFO]
        assert len(lines) == len(configured) == len(body["instances"]) > 1, lines
        for i, (line, entry) in enumerate(zip(lines, body["instances"])):
            head = f"check instance {i}: {entry['verdict']}, match={entry.get('match')} "
            assert line.startswith(head) and re.search(r"\(\d+\.\d{3}s\)$", line), line


class TestNoRationalRoundTrip:
    """A sampled point reaches the kernel as integers: the rationals a sweep
    forms are the map's and the report's, whatever the number of points."""

    @staticmethod
    def _counted(monkeypatch, run) -> dict:
        counts = dict.fromkeys(("rational", "integer_vector", "Fraction"), 0)
        modules = [m for n, m in sys.modules.items() if n == "polyharm" or n.startswith("polyharm.")]
        for name in ("rational", "integer_vector"):
            original = getattr(polyharm.rationals, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted_new)
        run()
        monkeypatch.undo()
        return counts

    @pytest.mark.parametrize("cell", [(4, 0, 1, 2), (5, 1, -1, 0), (6, -1, 0, 2), (3, 0, 0, 0)])
    def test_rationals_do_not_grow_with_points(self, monkeypatch, cell):
        m, c1, c2, eps = cell
        counts = [
            self._counted(
                monkeypatch,
                lambda: sweep_biharmonic(
                    m_values=(m,), pairs=((c1, c2),), eps_values=(eps,), trials=1, points=points, seed=3
                ),
            )
            for points in (1, 5)
        ]
        assert counts[0] == counts[1] and counts[0]["rational"] > 0, counts


    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_polyharmonic_rationals_do_not_grow_with_points(self, monkeypatch, mode):
        # the flags are decided on integers, and a trial prints its point
        # from them: only the map's and the report's rationals are formed
        counts = [
            self._counted(
                monkeypatch,
                lambda: sweep_polyharmonic(orders=(1, 3), m_values=(5, 6), points=points, seed=3, mode=mode),
            )
            for points in (1, 5)
        ]
        formed = [(c["rational"], c["Fraction"]) for c in counts]
        assert formed[0] == formed[1], counts

    def test_exact_polyharmonic_flags_form_no_rational(self, monkeypatch):
        # with residuals.rational refusing every call, each point gives the
        # flags it gave before, zero, proper and nonzero cells and k - 1 = 0
        cases = []
        for order, m in ((1, 3), (1, 4), (2, 4), (2, 7), (3, 6), (3, 4), (4, 9)):
            rng = random.Random(f"ph-integer-flags:{order}:{m}")
            mmap = random_mobius(rng, m, SpaceFormModel.flat(m), 2, style=order % 3)
            cases.append((mmap, order, _flat_sample_point(rng, mmap)))
        want = [_polyharmonic_point(*case, EXACT, residuals.DEFAULT_FLOAT_TOL) for case in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("a rational was formed")

        monkeypatch.setattr(residuals, "rational", refuse)
        assert [_polyharmonic_point(*case, EXACT, residuals.DEFAULT_FLOAT_TOL) for case in cases] == want
        assert {flags[0] for flags in want} == {True, False}


class TestFloatBoundary:
    """Float mode is decided at the verifier: the evaluators are handed the
    floats of the rational sample points, and reports print the rationals."""

    @pytest.mark.parametrize("mode, scalar", [(EXACT, IntegerPoint), (FLOAT, float)])
    def test_sweep_cells_hand_the_mode_scalars(self, monkeypatch, mode, scalar):
        # exact mode hands the sampler's integer point itself, float mode the
        # float of each coordinate
        def handed(x):
            return type(x) is scalar if scalar is IntegerPoint else all(type(v) is scalar for v in x)

        seen = _spy(monkeypatch, "evaluate_residuals")
        sweep_biharmonic(m_values=(4,), pairs=((0, 1),), eps_values=(2,), trials=1, points=2, mode=mode)
        assert len(seen) == 2 and all(handed(x) for x in seen)
        seen = _spy(monkeypatch, "polyharmonic_orders")
        sweep_polyharmonic(orders=(2,), m_values=(4,), mode=mode)
        assert len(seen) == 1 and all(handed(x) for x in seen)

    def test_float_check_hands_floats_and_prints_rationals(self, monkeypatch):
        seen = _spy(monkeypatch, "evaluate_residuals")
        inst = ConformalInstance(
            SpaceFormModel.flat(4), SpaceFormModel.sphere(4), MobiusMap.inversion(4)
        )
        out = run_check(inst, SamplePlan(seed=2, count=3), mode=FLOAT)
        assert len(seen) == 3 and all(type(v) is float for x in seen for v in x)
        for x, p in zip(seen, out["points"]):
            assert tuple(float(rational(v)) for v in p["point"]) == x
            assert all("/" in v for v in p["point"])

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_hyperbolic_inversion_m3_not_biharmonic(self, tmp_path, capsys, mode):
        # SDL here is 2.3e4 against terms of 1.5e5, far from zero, yet below
        # 1e-12 (1 + max |lambda_beta|)^4 = 1.3e6: an absolute noise floor
        # sized by the Taylor coefficients alone calls it zero in float mode
        cfg = {
            "domain": {"model": "hyperbolic", "dim": 3},
            "target": {"model": "hyperbolic", "dim": 3},
            "map": {"a": ["1/2", "1/2", "0"], "b": ["0", "-1/7", "-1/8"], "k": "3/7", "epsilon": 2},
            "sample": {"points": [["2/13", "1/11", "-2/11"]]},
            "expect": "not-biharmonic",
        }
        assert main(["check", str(_write(tmp_path, cfg)), "--mode", mode, "--format", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["instances"]
        assert entry["verdict"] == "not-biharmonic"

    def test_float_check_skips_a_point_whose_doubles_leave_the_chart(self):
        # 1 - 2^-60 lies inside the unit ball, but its double is 1.0, on the
        # hyperbolic chart's boundary: float mode skips that point with a
        # warning and classifies from the others; exact mode keeps all three
        mmap = MobiusMap.build(a=_zeros(3), b=_zeros(3), k=1, epsilon=0)
        inst = ConformalInstance(SpaceFormModel.hyperbolic(3), SpaceFormModel.flat(3), mmap)
        edge = (1 - Fraction(1, 2**60), 0, 0)
        plan = SamplePlan(points=(edge, ("1/2", 0, 0), (0, "1/3", "1/4")))
        exact, flt = run_check(inst, plan), run_check(inst, plan, mode=FLOAT)
        assert len(exact["points"]) == 3 and not exact["warnings"]
        assert [p["point"] for p in flt["points"]] == [p["point"] for p in exact["points"][1:]]
        (warning,) = flt["warnings"]
        assert warning.startswith(f"skipped {format_rational(edge[0])} 0/1 0/1: ")
        assert warning.endswith("outside the hyperbolic chart")
        assert flt["verdict"] == exact["verdict"] == "not-biharmonic"
        with pytest.raises(AdmissibleRegionError, match="every sampled point was skipped"):
            run_check(inst, SamplePlan(points=(edge,)), mode=FLOAT)

    def test_float_check_cli_warns_of_the_skip_without_verbose(self, tmp_path):
        # without -v the CLI configures no logging; the skipped point still
        # reaches stderr, through logging's last-resort handler
        edge = format_rational(1 - Fraction(1, 2**60))
        cfg = {
            "domain": {"model": "hyperbolic", "dim": 3},
            "target": {"model": "flat", "dim": 3},
            "map": {"a": _zeros(3), "b": _zeros(3), "k": "1", "epsilon": 0},
            "sample": {"points": [[edge, "0", "0"], ["1/2", "0", "0"], ["0", "1/3", "1/4"]]},
        }
        run = _fresh_python("-m", "polyharm", "check", str(_write(tmp_path, cfg)), "--mode", "float", "--format", "json")
        assert run.returncode == 0, run.stderr
        (entry,) = json.loads(run.stdout)["instances"]
        (warning,) = entry["warnings"]
        assert warning.startswith(f"skipped {edge} 0/1 0/1: ")
        (line,) = run.stderr.splitlines()
        assert f"skipping point ['{edge}', '0/1', '0/1']: " in line and line.endswith("outside the hyperbolic chart")


class TestReports:
    def _report(self, seed=3):
        inst = ConformalInstance(
            SpaceFormModel.flat(4), SpaceFormModel.flat(4), MobiusMap.inversion(4)
        )
        body = check_report_body([ConfiguredInstance(inst, "proper-biharmonic")], SamplePlan(seed=seed, count=4))
        return ResidualReport(
            kind="check", mode=EXACT, seed=seed, body=body, exit_code=0 if body["all_match"] else 1
        )

    @staticmethod
    def _schema() -> dict:
        return json.loads((Path(polyharm.__file__).parent / "schemas" / "report.schema.json").read_text())

    def test_json_validates_against_shipped_schema(self):
        import jsonschema

        schema = self._schema()
        report = self._report()
        jsonschema.validate(json.loads(render_report(report, "json")), schema)
        bh = sweep_biharmonic(m_values=(4,), pairs=((0, 0),), eps_values=(2,), trials=1, points=3)
        rep = ResidualReport(kind="sweep-biharmonic", mode=EXACT, seed=0, body=bh, exit_code=0)
        jsonschema.validate(json.loads(render_report(rep, "json")), schema)
        st = ResidualReport(kind="selftest", mode=EXACT, seed=None, body=selftest(), exit_code=0)
        jsonschema.validate(json.loads(render_report(st, "json")), schema)
        for mode, tol in ((EXACT, None), (FLOAT, residuals.DEFAULT_FLOAT_TOL)):
            ph = sweep_polyharmonic(orders=(1, 2), m_values=(3, 4), trials=2, mode=mode)
            rep = ResidualReport(kind="sweep-polyharmonic", mode=mode, seed=0, body=ph, exit_code=0, tol=tol)
            jsonschema.validate(json.loads(render_report(rep, "json")), schema)

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        # the run of ``_report`` through the CLI: the m = 4 inversion at seed
        # 3 with four points of the default radius, written by --out twice
        cfg = _inversion_config(expect="proper-biharmonic", seed=3, count=4)
        del cfg["sample"]["radius"]
        path = _write(tmp_path, cfg)
        for name in ("a.json", "b.json"):
            assert main(["check", str(path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        a, b = (tmp_path / "a.json").read_text(), (tmp_path / "b.json").read_text()
        assert a == b == render_report(self._report(), "json")

    def test_csv_has_row_per_point(self):
        text = render_report(self._report(), "csv")
        lines = [l for l in text.strip().splitlines()]
        assert len(lines) == 1 + 4  # header + one row per sampled point

    def test_polyharmonic_rows_read_every_trial(self, monkeypatch):
        # with trial 1 disagreeing with trial 0 on every flag, a row prints
        # "mixed" where it once printed trial 0's values
        original = polyharm.verifier._polyharmonic_point
        calls = []

        def second_trial_flipped(*args):
            calls.append(args)
            flags = original(*args)
            return tuple(not f for f in flags) if len(calls) == 2 else flags

        def rows():
            body = sweep_polyharmonic(orders=(2,), m_values=(4,), trials=2)
            rep = ResidualReport(kind="sweep-polyharmonic", mode=EXACT, seed=0, body=body, exit_code=0)
            return render_report(rep, "csv").splitlines()[1:]

        assert rows() == ["2,4,True,True,True,True,True,True"]
        monkeypatch.setattr(polyharm.verifier, "_polyharmonic_point", second_trial_flipped)
        assert rows() == ["2,4,True,mixed,True,mixed,mixed,False"]
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", str(GOLDEN / "curved_check.json")],
            ["sweep-biharmonic", "--m-min", "4", "--m-max", "4", "--trials", "1", "--points", "2"],
            ["sweep-polyharmonic", "--k-max", "2", "--m-max", "4", "--mode", "float"],
            ["selftest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_names_no_time_and_only_schema_properties(self, capsys, argv):
        # a time would make the bytes of a report differ between runs: no
        # key at any depth names one, and every top-level key is one the
        # shipped schema describes
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        keys = {k for path in _paths(doc) for k in path if isinstance(k, str)}
        assert not [k for k in keys if "time" in k.lower() or "elapsed" in k.lower()]
        assert set(doc) <= set(self._schema()["properties"])

    def test_exact_reports_match_golden_digests(self, monkeypatch, capsys):
        # SHA-256 of the reports of these command lines, run from the
        # repository root: every exact report, and the float sweeps and
        # selftest, which print flags and no norm; float check is left out,
        # since its norms go through the platform's libm pow and are not
        # portable bytes
        monkeypatch.chdir(GOLDEN.parents[1])
        digests = json.loads((GOLDEN / "report_digests.json").read_text())
        assert len(digests) == 11
        for command, digest in digests.items():
            prog, *argv = command.split()
            assert prog == "polyharm"
            assert main(argv) == 0, command
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, command


class TestCli:
    def test_float_polyharmonic_value_past_the_doubles_is_one_error_line(self, capsys):
        # N_88 at m = 180 exceeds the largest double: float mode stops at
        # the window's first cell with one error line naming the cell and
        # the order, exact mode decides every cell
        window = ["--k-min", "89", "--k-max", "90", "--m-min", "180", "--m-max", "181"]
        assert main(["sweep-polyharmonic", "--mode", "float", *window]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: cell k=89 m=180: order 88: Delta^88 phi leaves the double range at this point"
        assert main(["sweep-polyharmonic", *window]) == 0

    @pytest.mark.parametrize("exponent", [100, 170])
    def test_float_check_skips_a_point_past_the_doubles(self, tmp_path, capsys, exponent):
        # F = |x - a|^2 = 10^(-2 exponent): at 10^-100 the residual
        # denominators 8 F^3 and 16 F^5 underflow, at 10^-170 F itself; float
        # mode skips the point naming the double range, exact mode decides it
        near = [f"1/{10**exponent}", "0", "0", "0"]
        cfg = _inversion_config(expect="proper-biharmonic")
        cfg["sample"] = {"exclusion": "0", "points": [near]}
        path = _write(tmp_path, cfg)
        assert main(["check", str(path), "--mode", "float"]) == 1
        assert capsys.readouterr().err.endswith("error: every sampled point was skipped\n")
        assert main(["check", str(path), "--format", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["instances"]
        assert entry["verdict"] == "proper-biharmonic" and not entry["warnings"]
        inst = ConformalInstance(SpaceFormModel.flat(4), SpaceFormModel.flat(4), MobiusMap.inversion(4))
        out = run_check(inst, SamplePlan(exclusion=0, points=(near, ("1", "0", "0", "0"))), mode=FLOAT)
        (warning,) = out["warnings"]
        assert warning.startswith(f"skipped {near[0]} 0/1 0/1 0/1: ") and "leaves the double range" in warning
        assert out["verdict"] == "proper-biharmonic"

    def test_points_beyond_the_draw_lattice_exit_two(self, capsys):
        assert main(["sweep-biharmonic", "--m-max", "3", "--points", "40000"]) == 2
        assert "draw lattice holds 35937" in capsys.readouterr().err

    def test_check_exit_zero_and_report_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, _inversion_config(expect="proper-biharmonic"))
        out = tmp_path / "report.json"
        code = main(["check", str(cfg), "--out", str(out)])
        assert code == 0 and out.is_file()
        doc = json.loads(out.read_text())
        assert doc["kind"] == "check" and doc["all_match"]

    def test_verdict_mismatch_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, _inversion_config(m=5, expect="proper-biharmonic"))
        assert main(["check", str(cfg)]) == 1

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = _inversion_config()
        cfg["map"]["epsilon"] = 1
        assert main(["check", str(_write(tmp_path, cfg))]) == 2

    @pytest.mark.parametrize("radius", ["0", "-2"])
    def test_nonpositive_radius_exits_two(self, tmp_path, capsys, radius):
        # radius 0 sends every draw to the origin; a negative radius is no radius
        cfg = _inversion_config()
        cfg["sample"]["radius"] = radius
        assert main(["check", str(_write(tmp_path, cfg))]) == 2
        assert "radius" in capsys.readouterr().err

    def test_tol_requires_float_mode(self, tmp_path, capsys):
        cfg = _write(tmp_path, _inversion_config())
        assert main(["check", str(cfg), "--tol", "1e-9"]) == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "1", "2", "inf", "nan"])
    def test_tol_outside_unit_interval_exits_two(self, tmp_path, capsys, tol):
        # a residual's norm never exceeds its scale, so tol >= 1 counts every
        # float residual as zero: this mismatch would pass vacuously
        cfg = _write(tmp_path, _inversion_config(m=5, expect="proper-biharmonic"))
        assert main(["check", str(cfg), "--mode", "float"]) == 1
        assert main(["check", str(cfg), "--mode", "float", f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_tol_refused_before_the_config_is_read(self, tmp_path, capsys):
        # argparse checks --tol as it parses: a missing config is never reached
        assert main(["check", str(tmp_path / "absent.json"), "--mode", "float", "--tol", "many"]) == 2
        err = capsys.readouterr().err
        assert "argument --tol: must lie strictly between 0 and 1, got 'many'" in err
        assert "config file not found" not in err

    def test_flags_follow_the_command(self, capsys):
        # the common flags belong to each command, not to the top level
        window = ["--m-min", "3", "--m-max", "3", "--trials", "1", "--points", "1"]
        before = _fresh_python("-m", "polyharm", "-v", "sweep-biharmonic", *window)
        assert before.returncode == 2 and "unrecognized arguments: -v" in before.stderr
        after = _fresh_python("-m", "polyharm", "sweep-biharmonic", "-v", *window)
        assert after.returncode == 0, after.stderr
        assert main(["--help"]) == 0
        assert "Flags follow the command" in capsys.readouterr().out

    def test_out_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYHARM_OUT_DIR", str(tmp_path / "reports"))
        cfg = _write(tmp_path, _inversion_config())
        assert main(["check", str(cfg), "--out", "r.json"]) == 0
        assert (tmp_path / "reports" / "r.json").is_file()

    def test_selftest_subcommand(self, capsys):
        assert main(["selftest", "--format", "table"]) == 0
        assert "all" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed", "5"], ["--points", "0"]], ids=["seed", "points"])
    def test_selftest_refuses_sampling_flags(self, flags, capsys):
        # selftest draws from fixed tags; a seed or point count it would
        # ignore is a usage error, not a silent no-op
        assert main(["selftest"] + flags) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_small_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-biharmonic",
                "--m-min", "4", "--m-max", "4",
                "--trials", "1", "--points", "3",
                "--out", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 18  # 9 curvature pairs x 2 branches

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-biharmonic", "--trials", "0"],
            ["sweep-biharmonic", "--points", "0"],
            ["sweep-biharmonic", "--m-min", "5", "--m-max", "4"],
            ["sweep-biharmonic", "--m-min", "2", "--m-max", "2", "--trials", "1"],
            ["sweep-polyharmonic", "--trials", "0"],
            ["sweep-polyharmonic", "--points", "0"],
            ["sweep-polyharmonic", "--k-min", "3", "--k-max", "2"],
            ["sweep-polyharmonic", "--m-min", "5", "--m-max", "4"],
            ["sweep-polyharmonic", "--k-min", "0", "--k-max", "1"],
            ["sweep-polyharmonic", "--m-min", "2", "--m-max", "3", "--k-max", "1"],
        ],
    )
    def test_degenerate_sweep_arguments_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, sample, m, expect",
        [
            (["--points", "0"], {}, 4, None),
            (["--points", "-3"], {}, 4, None),
            ([], {"count": 0}, 4, None),
            ([], {"points": []}, 4, None),
            # x/|x|^2 is harmonic in the plane, which the residuals do not see
            ([], {}, 2, "harmonic"),
            # --points and --seed choose nothing where the config lists its points
            (["--points", "1"], {"points": _EXPLICIT_POINTS}, 4, None),
            (["--seed", "3"], {"points": _EXPLICIT_POINTS}, 4, None),
        ],
        ids=[
            "points-zero", "points-negative", "count-zero", "no-explicit-points", "plane",
            "points-with-explicit-points", "seed-with-explicit-points",
        ],
    )
    def test_degenerate_check_input_exits_two(self, tmp_path, capsys, flags, sample, m, expect):
        cfg = _inversion_config(m=m, expect=expect)
        cfg["sample"].update(sample)
        assert main(["check", str(_write(tmp_path, cfg))] + flags) == 2
        assert "config error" in capsys.readouterr().err

    def test_three_instance_config_checks(self, tmp_path, capsys):
        # the base of the malformed cases below is itself a valid config
        assert main(["check", str(_write(tmp_path, _three_instance_config()))]) == 0

    @pytest.mark.parametrize(
        "path, value",
        [
            (("instances",), [5]),
            (("instances", 0, "domain", "dim"), "x"),
            (("instances", 0, "domain", "dim"), None),
            (("instances", 0, "map", "epsilon"), "x"),
            (("instances", 2, "map", "A", "data", 1), []),
            (("instances", 1, "map", "A", "data", "signs"), []),
            (("sample", "points"), [["1", "1/2", "0", "0", "5"]]),
            (("sample", "points"), [["1", "1/2"]]),
            (("sample", "exclusion"), "-1/8"),
            # integer fields take JSON integers alone, rationals ints or "p/q"
            (("instances", 0, "domain", "dim"), 4.9),
            (("instances", 0, "target", "dim"), "4"),
            (("sample", "count"), 2.5),
            (("sample", "seed"), 3.7),
            (("sample", "seed"), True),
            (("instances", 1, "map", "k"), True),
            (("instances", 2, "map", "epsilon"), 2.7),
            (("instances", 0, "map", "epsilon"), "2"),
        ],
        ids=[
            "instance-not-object", "dim-text", "dim-null", "epsilon-text", "empty-cayley-row",
            "no-signs", "point-too-long", "point-too-short", "negative-exclusion",
            "dim-float", "dim-numeric-text", "count-float", "seed-float", "seed-bool",
            "k-bool", "epsilon-float", "epsilon-numeric-text",
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, path, value):
        cfg = _replaced(_three_instance_config(), path, value)
        assert main(["check", str(_write(tmp_path, cfg))]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("signs", [True, -1, 1, -1]), ("perm", [True, 0, 3, 2])])
    def test_boolean_permutation_entries_exit_two(self, tmp_path, capsys, field, value):
        # JSON true equals 1 in Python; a sign or index must be a JSON integer
        cfg = json.loads((GOLDEN / "curved_check.json").read_text())
        cfg["instances"][0]["map"]["A"]["data"][field] = value
        assert main(["check", str(_write(tmp_path, cfg))]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "module",
        [
            "numpy", "polyharm.jets", "dataclasses", "inspect", "logging",
            "json", "csv", "polyharm.check", "polyharm.selftest", "polyharm.report",
            # the tests' symbolic oracle, never a runtime import
            "sympy",
        ],
    )
    def test_import_loads_no_numpy(self, module):
        # every CLI call pays the package import: the package needs no numpy,
        # the jets are off the verdict path, dataclasses pulls in inspect, and
        # config reading, selftest and reports belong to their own commands;
        # judged on the modules the import adds, whatever start-up preloads.
        # polyharm.jets still resolves on first use, as the benchmark tracer reads it
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import polyharm\n"
            f"print({module!r} in set(sys.modules) - before)\n"
            "print(getattr(polyharm, 'jets').__name__)\n"
        )
        run = _fresh_python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False", "polyharm.jets"]

    def test_sweeps_never_load_logging(self):
        # a sweep's per-cell line goes through logging only once something
        # else has loaded it, so a round of the sweeps pays no logging import;
        # the map's uncalled cross-checks are the tests' oracles, not the package's
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import polyharm\n"
            "from polyharm import mobius, spaceform\n"
            "from polyharm.verifier import sweep_biharmonic, sweep_polyharmonic\n"
            "bih = sweep_biharmonic(m_values=(4,), pairs=((1, 1),), eps_values=(2,), trials=1, points=1)\n"
            "ph = sweep_polyharmonic(orders=(2,), m_values=(4,))\n"
            "print(len(bih['cells']), len(ph['cells']), bih['all_match'] and ph['all_match'])\n"
            "print('logging' in set(sys.modules) - before)\n"
            "names = ('apply_point', 'reduced_parameters', 'conformality_check', 'ReducedFactorParams', 'in_domain')\n"
            "print(*sorted(n for n in names if hasattr(mobius, n) or hasattr(spaceform, n)))\n"
        )
        run = _fresh_python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["1 1 True", "False", ""]

    def test_cli_logs_cells_of_a_package_imported_first(self):
        # ``python -m`` imports the package before the CLI imports logging and
        # configures it, an order that caplog never exercises
        argv = ["-m", "polyharm", "sweep-biharmonic", "-v", "--m-min", "3", "--m-max", "3", "--trials", "1", "--points", "1"]
        run = _fresh_python(*argv)
        assert run.returncode == 0, run.stderr
        lines = [line for line in run.stderr.splitlines() if line.startswith("INFO:polyharm:biharmonic cell m=3 ")]
        assert len(lines) == 18 and all(re.search(r"\(\d+\.\d{3}s\)$", line) for line in lines), run.stderr

    @pytest.mark.parametrize(
        "argv, loaded, absent",
        [
            # the default table format needs neither serializer
            (["sweep-biharmonic", "--m-min", "3", "--m-max", "3"], [], ["polyharm.check", "polyharm.selftest", "json", "csv", "logging"]),
            (["check", str(GOLDEN / "curved_check.json")], ["polyharm.check"], ["polyharm.selftest", "logging"]),
            (["selftest"], ["polyharm.selftest"], ["logging"]),
        ],
        ids=["sweep-biharmonic", "check", "selftest"],
    )
    def test_command_loads_only_its_modules(self, argv, loaded, absent):
        # a sweep compiles neither the config reader nor the selftest batteries,
        # and no command loads logging without -v
        code = (
            "import sys\n"
            "from polyharm.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('polyharm.') or m in ('json', 'csv', 'logging')), file=sys.stderr)\n"
        )
        run = _fresh_python("-c", code)
        assert run.returncode == 0, run.stderr
        exit_code, *modules = run.stderr.splitlines()[-1].split()
        assert exit_code == "0"
        assert set(loaded) <= set(modules) and not set(absent) & set(modules), modules

    def test_python_dash_m_runs_the_cli(self):
        run = _fresh_python("-m", "polyharm", "selftest")
        assert run.returncode == 0, run.stderr
        assert run.stdout.rstrip().endswith("kind=selftest mode=exact exit=0")

    def test_inadmissible_explicit_point_exits_two(self, tmp_path, capsys):
        # a configured point on the inversion's singular set is a usage error,
        # named as configured, not a runtime failure printed as Python reprs
        cfg = _inversion_config(m=3)
        cfg["sample"]["points"] = [["0", "0", "0"]]
        assert main(["check", str(_write(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "explicit point 0/1 0/1 0/1" in err
        assert "Fraction(" not in err

    @pytest.mark.parametrize("module", ["mobius", "spaceform"])
    def test_no_jet_engine_below_the_verifier(self, module):
        # the map family and the chart models read the factor as P/Q; the
        # dense jets are the tests' oracle, not a route of theirs
        path = Path(polyharm.__file__).parent / f"{module}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        assert not imported & {"jets", "Jet"}

    def test_no_hand_written_immutability(self):
        # records are validated named tuples: no module refuses assignment by
        # hand or writes past such a refusal
        for path in sorted(Path(polyharm.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                defines = isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__")
                bypasses = isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"
                assert not (defines or bypasses), (path.name, node.lineno)

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        cfg = _write(tmp_path, _inversion_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", str(cfg), "--seed", "12", "--out", str(a)]) == 0
        assert main(["check", str(cfg), "--seed", "12", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
