"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.

Criterion 3 checks the identities that lock the three gradient-form
residuals of ``polyharm.residuals`` together.  From their definitions:

  * ND - ND2 - 2*SDL is identically zero as a polynomial in lam, lapbar(lam),
    |gradbar lam|^2 and their gradients, by the product rule alone;
  * substituting the factor constraint CL for lapbar(lam) and its gradient
    reduces ND - SDL and ND2 + SDL to zero.

So at every admissible point CL = 0, ND = SDL, ND2 = -SDL and ND - ND2 =
2*SDL, all exactly.  The criterion was once written as ND = ND2 = 2*SDL; that
form was replaced because subtracting its two equalities forces SDL = 0
everywhere, which would make every conformal map biharmonic and contradict
criterion 1's not-biharmonic cells (every m = 5 cell, for instance).
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from polyharm import jets
from polyharm.cli import main
from polyharm.jets import seed
from polyharm.mobius import ConformalInstance, MobiusMap
from polyharm.rationals import EXACT, rational
from polyharm.residuals import evaluate_residuals
from polyharm.selftest import radial_classification_check
from polyharm.spaceform import SpaceFormModel
from polyharm.verifier import (
    CURVATURE_PAIRS,
    SamplePlan,
    _sweep_instance,
    random_mobius,
    sample_points,
    sweep_biharmonic,
    sweep_polyharmonic,
)

from conftest import floats, rand_point, rng_for
from jet_oracles import conformal_factor, laplace_beltrami

GOLDEN = Path(__file__).parent / "golden"


def _report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


def _instances_battery(points_per=5, m=5):
    """One random instance per (c1, c2, epsilon) family with sample points."""
    out = []
    for c1, c2 in CURVATURE_PAIRS:
        for epsilon in (0, 2):
            tag = f"polyharm:acceptance:{m}:{c1}:{c2}:{epsilon}"
            instance, pts = _sweep_instance(tag, m, c1, c2, epsilon, 1, points_per)
            out.append((instance, pts))
    return out


class TestAcceptance:
    def test_criterion_1_biharmonic_classification_table(self):
        t0 = time.perf_counter()
        body = sweep_biharmonic(
            m_values=range(3, 9), trials=3, points=5, seed=0, mode=EXACT
        )
        elapsed = time.perf_counter() - t0
        golden = {
            (c["m"], c["c1"], c["c2"], c["epsilon"]): c["proper_biharmonic"]
            for c in json.loads((GOLDEN / "biharmonic_truth_table.json").read_text())
        }
        assert len(body["cells"]) == 108
        for cell in body["cells"]:
            key = (cell["m"], cell["c1"], cell["c2"], cell["epsilon"])
            observed = all(t["proper"] for t in cell["trials"])
            anywhere = any(t["proper"] for t in cell["trials"])
            assert observed == anywhere == golden[key], (
                f"ACCEPTANCE 1: FAIL - cell {key} verdict {cell['verdict']} "
                f"disagrees with the classification table"
            )
        assert body["all_match"]
        assert elapsed < 120, f"sweep took {elapsed:.0f}s, expected under 2 minutes"
        _report(1, f"108 cells match the classification table in {elapsed:.1f}s")

    def test_criterion_2_factor_constraint_conservation(self):
        checked = 0
        for instance, _ in _instances_battery():
            plan = SamplePlan(seed=77, count=20)
            pts = sample_points(plan, instance)
            assert len(pts) == 20
            for x in pts:
                rv = evaluate_residuals(instance, x)["CL"]
                assert rv.exact_zero and all(v == 0 for v in rv.values), (
                    f"ACCEPTANCE 2: FAIL - nonzero factor constraint at {x} "
                    f"for {instance.domain.name}->{instance.target.name}"
                )
                checked += 1
        assert checked == 18 * 20
        _report(2, f"factor constraint exactly zero at {checked} points, 0 tolerance")

    def test_criterion_3_consistency_identity_as_stated(self):
        """CL = 0, ND = SDL, ND2 = -SDL and ND - ND2 = 2*SDL, exactly, at
        every sampled point of every instance family (m = 5).

        SDL must be nonzero wherever gradbar(lam) is: at m = 5 no
        non-homothetic conformal map between space forms is biharmonic
        (criterion 1), so a vanishing SDL there would mean the identities
        hold only because every residual collapsed to zero.
        """
        points = nonzero = 0
        for instance, pts in _instances_battery(points_per=3):
            family = (
                f"{instance.domain.name}->{instance.target.name} "
                f"epsilon={instance.map.epsilon}"
            )
            for x in pts:
                ev = evaluate_residuals(instance, x)
                cl = ev["CL"].values
                sdl, nd, nd2 = ev["SDL"].values, ev["ND"].values, ev["ND2"].values
                where = f"{family} at ({', '.join(map(str, x.fractions()))})"
                assert all(v == 0 for v in cl), (
                    f"ACCEPTANCE 3: FAIL - factor constraint CL = {cl} at {where}"
                )
                assert tuple(a - b for a, b in zip(nd, nd2)) == tuple(
                    2 * s for s in sdl
                ), f"ACCEPTANCE 3: FAIL - ND - ND2 != 2*SDL at {where}"
                assert nd == sdl, f"ACCEPTANCE 3: FAIL - ND != SDL at {where}"
                assert nd2 == tuple(-s for s in sdl), (
                    f"ACCEPTANCE 3: FAIL - ND2 != -SDL at {where}"
                )
                if any(sdl):
                    nonzero += 1
                else:
                    assert ev["harmonic"], (
                        f"ACCEPTANCE 3: FAIL - SDL = 0 at the non-harmonic "
                        f"point {where}; the identities hold vacuously there"
                    )
                points += 1
        assert points == 18 * 3
        _report(
            3,
            f"CL = 0, ND = SDL, ND2 = -SDL, ND - ND2 = 2*SDL exactly at {points} "
            f"points; SDL != 0 at {nonzero} of them",
        )

    def test_criterion_4_flat_inversive_symbolic_residual(self):
        rng = rng_for("acceptance-4")
        for m in range(3, 9):
            k = rational(rng.randint(1, 5), rng.randint(1, 5))
            a = rand_point(rng, m, max_num=2, max_den=3)
            b = rand_point(rng, m, max_num=2, max_den=3)
            mmap = MobiusMap.build(a=a, b=b, k=k, epsilon=2)
            instance = ConformalInstance(
                SpaceFormModel.flat(m), SpaceFormModel.flat(m), mmap
            )
            pts = sample_points(SamplePlan(seed=m, count=3), instance)
            for x in pts:
                xj = seed(x.fractions(), 3)
                lam = conformal_factor(instance.domain, instance.target, mmap, xj)
                lam0 = lam.value()
                symbolic = tuple(
                    -2 * (m - 4) * lam0 * lam0 * g / k for g in lam.gradient()
                )
                halved = tuple(v / 2 for v in evaluate_residuals(instance, x)["ND"].values)
                assert halved == symbolic, (
                    f"ACCEPTANCE 4: FAIL - m={m} halved residual differs from "
                    "-(2/k)(m-4) lam^2 grad(lam)"
                )
        _report(4, "halved residual equals -(2/k)(m-4) lam^2 grad lam for m in 3..8")

    def test_criterion_5_hyperbolic_target_cubic_law(self):
        rng = rng_for("acceptance-5")
        domain = SpaceFormModel.flat(4)
        target = SpaceFormModel.hyperbolic(4)
        mmap = random_mobius(rng, 4, target, 2, style=1)
        instance = ConformalInstance(domain=domain, target=target, map=mmap)
        pts = sample_points(SamplePlan(seed=55, count=20), instance)
        assert len(pts) == 20
        for x in pts:
            xj = seed(x.fractions(), 3)
            lam = conformal_factor(domain, target, mmap, xj)
            assert lam.laplacian().value() == 2 * lam.value() ** 3, (
                f"ACCEPTANCE 5: FAIL - lap(lam) != 2 lam^3 at {x}"
            )
        _report(5, "flat-to-ball factor satisfies lap(lam) = 2 lam^3 at 20 points")

    def test_criterion_6_polyharmonic_table(self):
        t0 = time.perf_counter()
        body = sweep_polyharmonic(
            orders=range(1, 6), m_values=range(3, 13), trials=1, seed=0, mode=EXACT
        )
        elapsed = time.perf_counter() - t0
        golden = {
            (c["order"], c["m"]): c
            for c in json.loads((GOLDEN / "polyharmonic_truth_table.json").read_text())
        }
        assert len(body["cells"]) == 50
        for cell in body["cells"]:
            g = golden[(cell["order"], cell["m"])]
            t = cell["trials"][0]
            assert t["zero"] == g["zero"] and t["proper"] == g["proper"], (
                f"ACCEPTANCE 6: FAIL - cell (k={cell['order']}, m={cell['m']}) "
                f"got zero={t['zero']} proper={t['proper']}"
            )
            assert t["closed_form_match"], (
                f"ACCEPTANCE 6: FAIL - jet iterates differ from the closed form "
                f"at (k={cell['order']}, m={cell['m']})"
            )
        assert body["all_match"]
        assert elapsed < 600, f"sweep took {elapsed:.0f}s, expected under 10 minutes"
        _report(6, f"50 cells match; iterates equal the closed form; {elapsed:.1f}s")

    def test_criterion_7_radial_coefficient_spot_checks(self):
        rng = rng_for("acceptance-7")
        cs = []
        while len(cs) < 5:
            c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            if c != 1 and c not in cs:
                cs.append(c)
        for c in cs:
            for m in range(3, 9):
                for kind in ("sphere-sphere", "sphere-hyperbolic"):
                    out = radial_classification_check(kind, c, m)
                    assert out["ok"], (
                        f"ACCEPTANCE 7: FAIL - {kind} m={m} c={c}: "
                        f"extracted {out['coefficients'][:2]}, expected {out['expected']}"
                    )
        _report(7, "constant and quadratic coefficients match for 5 ratios x m in 3..8")

    def test_criterion_8_float_engine_cross_validation(self):
        h = 1e-4
        half = rational(1, 2)
        corpus = [
            (
                "weighted-quadratic",
                lambda x: x[0] * x[0] + 2 * (x[1] * x[1]) + 3 * (x[2] * x[2]) + x[0] * x[1],
                lambda p: p[0] ** 2 + 2 * p[1] ** 2 + 3 * p[2] ** 2 + p[0] * p[1],
            ),
            (
                "cayley-weight",
                lambda x: x[0].constant_like(1) / (1 + jets.norm_sq(x)),
                lambda p: 1.0 / (1.0 + sum(v * v for v in p)),
            ),
            (
                "product",
                lambda x: (1 + x[0] * x[1]) * (2 + x[2]),
                lambda p: (1.0 + p[0] * p[1]) * (2.0 + p[2]),
            ),
            (
                "simple-rational",
                lambda x: x[0] / (2 + x[1]),
                lambda p: p[0] / (2.0 + p[1]),
            ),
            (
                "inversive-factor",
                lambda x: x[0].constant_like(1)
                / jets.norm_sq(tuple(xi - 2 for xi in x)),
                lambda p: 1.0 / sum((v - 2.0) ** 2 for v in p),
            ),
            (
                "bump",
                lambda x: x[0].constant_like(2) / (jets.norm_sq(x) + rational(1, 4)),
                lambda p: 2.0 / (sum(v * v for v in p) + 0.25),
            ),
            (
                "ball-weight",
                lambda x: (1 - jets.norm_sq(x)).scale(half),
                lambda p: 0.5 * (1.0 - sum(v * v for v in p)),
            ),
            (
                "quartic",
                lambda x: jets.norm_sq(x) * jets.norm_sq(x),
                lambda p: sum(v * v for v in p) ** 2,
            ),
            (
                "squared-linear-over-bump",
                lambda x: (x[0] + 2 * x[1] - x[2]) * (x[0] + 2 * x[1] - x[2])
                / (3 + jets.norm_sq(x)),
                lambda p: (p[0] + 2 * p[1] - p[2]) ** 2 / (3.0 + sum(v * v for v in p)),
            ),
            (
                "cubic",
                lambda x: (1 + x[0]) * (1 + x[0]) * (1 - x[1]),
                lambda p: (1.0 + p[0]) ** 2 * (1.0 - p[1]),
            ),
        ]
        assert len(corpus) == 10
        x0 = (0.3, -0.2, 0.4)
        models = (
            SpaceFormModel.flat(3),
            SpaceFormModel.sphere(3),
            SpaceFormModel.hyperbolic(3),
        )

        def sigma_float(model, p):
            if model.curvature == 0:
                return 1.0
            return 2.0 / (1.0 + model.curvature * sum(v * v for v in p))

        for name, build, f in corpus:
            x = seed(x0, 2)
            jet = build(x)
            for model in models:
                got = laplace_beltrami(jet, model, x).value()

                def flux(p, i):
                    up, dn = list(p), list(p)
                    up[i] += h
                    dn[i] -= h
                    return sigma_float(model, p) ** (model.dim - 2) * (f(up) - f(dn)) / (2 * h)

                fd = 0.0
                for i in range(3):
                    up, dn = list(x0), list(x0)
                    up[i] += h
                    dn[i] -= h
                    fd += (flux(up, i) - flux(dn, i)) / (2 * h)
                fd /= sigma_float(model, x0) ** model.dim
                assert abs(got - fd) <= 1e-6 * max(1.0, abs(got), abs(fd)), (
                    f"ACCEPTANCE 8: FAIL - {name} on {model.name}: "
                    f"jet {got} vs finite differences {fd}"
                )
        # separation: float residuals of exact-zero vs exact-nonzero cases
        for m, c1, c2, eps in ((4, 0, 1, 2), (4, 0, -1, 0), (4, 0, 1, 0)):
            inst, pts = _sweep_instance(f"acc8z:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, 0, 3)
            for x in pts:
                rv = evaluate_residuals(inst, floats(x))["SDL"]
                assert rv.norm <= 1e-9 * rv.scale, (
                    f"ACCEPTANCE 8: FAIL - zero case ratio {rv.norm / rv.scale:.2e}"
                )
        # the flat inversive family at m=4 has identically-zero terms: they are
        # exactly 0.0, so scale and norm are 0.0 and the relative test holds
        inst, pts = _sweep_instance("acc8d:4:0:0:2", 4, 0, 0, 2, 0, 3)
        for x in pts:
            assert evaluate_residuals(inst, floats(x))["SDL"].exact_zero
        for m, c1, c2, eps in ((5, 0, 0, 2), (6, 0, 1, 2), (5, 1, 1, 2)):
            inst, pts = _sweep_instance(f"acc8n:{m}:{c1}:{c2}:{eps}", m, c1, c2, eps, 0, 3)
            for x in pts:
                rv = evaluate_residuals(inst, floats(x))["SDL"]
                assert rv.norm >= 1e-3 * rv.scale, (
                    f"ACCEPTANCE 8: FAIL - nonzero case ratio {rv.norm / rv.scale:.2e}"
                )
        _report(8, "10-function FD corpus within 1e-6; separation 1e-9/1e-3 holds")

    def test_criterion_9_byte_identical_reports(self, tmp_path):
        cfg = {
            "domain": {"model": "flat", "dim": 4},
            "target": {"model": "sphere", "dim": 4},
            "map": {
                "a": ["0", "0", "0", "0"],
                "b": ["1/2", "0", "0", "0"],
                "k": "2/3",
                "A": {"kind": "permutation", "data": {"perm": [1, 0, 2, 3], "signs": [1, -1, 1, 1]}},
                "epsilon": 2,
            },
            "sample": {"seed": 13, "count": 8},
            "expect": "proper-biharmonic",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            assert main(["check", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], "ACCEPTANCE 9: FAIL - check reports differ"
        sweeps = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            code = main(
                [
                    "sweep-biharmonic", "--m-min", "4", "--m-max", "4",
                    "--trials", "2", "--points", "3", "--seed", "21",
                    "--out", str(out),
                ]
            )
            assert code == 0
            sweeps.append(out.read_bytes())
        assert sweeps[0] == sweeps[1], "ACCEPTANCE 9: FAIL - sweep reports differ"
        _report(9, "check and sweep reports are byte-identical for fixed seeds")
