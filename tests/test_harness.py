import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from zerowind import classify_roots
from zerowind.curves import JordanCurve, classify_points, unit_circle
from zerowind.harness import (
    HarnessConfig,
    PlantedInstance,
    measure_instance,
    random_instance,
    replay,
    run_harness,
)
from zerowind.polynomials import Polynomial

FAMILIES = ("circle", "trig-perturbed", "square", "lshape")


class TestConfig:
    def test_json_round_trip(self):
        cfg = HarnessConfig(trials=7, max_degree=5, curve_family="lshape", seed=99)
        assert HarnessConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            HarnessConfig.from_json({"trials": 3, "surprise": 1})

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            HarnessConfig(curve_family="hexagon")

    @pytest.mark.parametrize("seed", [-1, -(2**63)])
    def test_negative_seed_rejected(self, seed):
        # it was accepted, and run_harness then failed inside NumPy: "expected non-negative integer"
        message = f"^seed must be a non-negative integer, not {seed}$"
        with pytest.raises(ValueError, match=message):
            HarnessConfig(seed=seed)
        with pytest.raises(ValueError, match=message):
            HarnessConfig.from_json({"seed": seed})
        assert HarnessConfig(seed=0).seed == 0

    @pytest.mark.parametrize(
        "key, value",
        [("max_degree", 2.5), ("trials", True), ("seed", "3"), ("max_degree", np.bool_(True))],
        ids=["fraction", "bool", "string", "numpy-bool"],
    )
    def test_counts_follow_the_integer_rule(self, key, value):
        # max_degree=2.5 drew degrees 1-2 and echoed 2.5, and trials=True echoed true
        message = f"^{re.escape(f'{key} must be an integer, not {value!r}')}$"
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**{key: value})

    def test_integer_counts_stored_as_python_ints(self):
        # NumPy integers were stored as given, and json.dumps refused the report: "int64 is not JSON serializable"
        cfg = HarnessConfig(trials=np.int64(2), max_degree=np.int32(3), curve_family="square", seed=np.uint64(5))
        assert cfg == HarnessConfig(trials=2, max_degree=3.0, curve_family="square", seed=5)
        assert all(type(v) is int for v in (cfg.trials, cfg.max_degree, cfg.seed))
        report = json.loads(json.dumps(run_harness(cfg).to_json()))
        assert report["config"] == {"trials": 2, "max_degree": 3, "curve_family": "square", "seed": 5}


class TestInstanceGeneration:
    def test_planted_counts_match_classifier(self):
        # the generator's ground truth must agree with the real classifier
        rng = np.random.default_rng(13)
        for fam in ("circle", "trig-perturbed", "square", "lshape"):
            cfg = HarnessConfig(trials=1, max_degree=6, curve_family=fam, seed=0)
            for _ in range(8):
                inst = random_instance(rng, cfg)
                rep = classify_roots(inst.polynomial, inst.curve)
                assert (rep.m, rep.lam) == (inst.m, inst.lam), fam

    def test_min_on_curve_respected(self):
        rng = np.random.default_rng(3)
        cfg = HarnessConfig(trials=1, max_degree=4, curve_family="circle", seed=0)
        for _ in range(5):
            inst = random_instance(rng, cfg, min_on_curve=1)
            assert inst.lam >= 1

    def test_degree_budget(self):
        rng = np.random.default_rng(8)
        cfg = HarnessConfig(trials=1, max_degree=5, curve_family="square", seed=0)
        for _ in range(10):
            inst = random_instance(rng, cfg)
            assert 1 <= inst.polynomial.degree <= 5

    @pytest.mark.parametrize(
        "max_multiplicity, message",
        [
            (0, "max_multiplicity must be at least 1, not 0"),
            (-1, "max_multiplicity must be at least 1, not -1"),
            (0.5, "max_multiplicity must be an integer, not 0.5"),
        ],
        ids=["0", "-1", "0.5"],
    )
    def test_refuses_multiplicities_below_1(self, max_multiplicity, message):
        # at max_multiplicity < 1 no root could be planted, and the draws never ended; now refused before any draw
        rng = np.random.default_rng(5)
        cfg = HarnessConfig(trials=1, max_degree=4, curve_family="circle", seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_instance(rng, cfg, max_multiplicity=max_multiplicity)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"min_on_curve": -5}, "min_on_curve must be at least 0, not -5"),
            ({"min_on_curve": 1.5}, "min_on_curve must be an integer, not 1.5"),
            ({"min_on_curve": "1"}, "min_on_curve must be an integer, not '1'"),
            ({"separation": float("nan")}, "separation must be at least 0, not nan"),
            ({"separation": -0.1}, "separation must be at least 0, not -0.1"),
            ({"max_multiplicity": 2.9}, "max_multiplicity must be an integer, not 2.9"),
            ({"max_multiplicity": True}, "max_multiplicity must be an integer, not True"),
            ({"max_multiplicity": "2"}, "max_multiplicity must be an integer, not '2'"),
        ],
        ids=[
            "negative-on-curve",
            "fractional-on-curve",
            "string-on-curve",
            "nan-separation",
            "negative-separation",
            "fractional-multiplicity",
            "bool-multiplicity",
            "string-multiplicity",
        ],
    )
    def test_refuses_bad_placement_arguments(self, options, message):
        # -5 was accepted, 1.5 put two roots on the curve, and a NaN separation failed every attempt with two or
        # more sites: here it planted a single triple root.  A multiplicity of 2.9 planted at most double roots,
        # True counted as 1, and '2' raised TypeError
        rng = np.random.default_rng(0)
        cfg = HarnessConfig(trials=1, max_degree=3, curve_family="circle", seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_instance(rng, cfg, **options)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("family", FAMILIES)
    def test_min_on_curve_above_the_degree_puts_every_root_on(self, family):
        cfg = HarnessConfig(trials=1, max_degree=1, curve_family=family, seed=0)
        for seed in range(10):
            inst = random_instance(np.random.default_rng(seed), cfg, min_on_curve=3)
            assert (inst.m, inst.lam, len(inst.on_curve_params)) == (0, 1, 1)

    def test_smooth_bound_reduces(self):
        rng = np.random.default_rng(4)
        cfg = HarnessConfig(trials=1, max_degree=6, curve_family="circle", seed=0)
        for _ in range(10):
            inst = random_instance(rng, cfg)
            assert inst.bound == 2 * inst.m + inst.lam


class TestRuns:
    @pytest.mark.parametrize("family", ["circle", "trig-perturbed", "square", "lshape"])
    def test_bounds_hold(self, family):
        rep = run_harness(HarnessConfig(trials=20, max_degree=6, curve_family=family, seed=17))
        assert rep.all_hold
        assert rep.min_slack >= 0

    def test_deterministic_reports(self):
        a = run_harness(HarnessConfig(trials=12, curve_family="trig-perturbed", seed=5))
        b = run_harness(HarnessConfig(trials=12, curve_family="trig-perturbed", seed=5))
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_unplaceable_request_is_a_value_error(self):
        # the seed-3 degree is 65: that many roots 0.2 apart do not fit the circle's sites
        message = "^could not place separated roots: degree 65, separation 0.2, 200 attempts$"
        with pytest.raises(ValueError, match=message):
            run_harness(HarnessConfig(trials=1, max_degree=80, curve_family="circle", seed=3))

    def test_sharp_instances_exist(self):
        # equality cases must appear, not just strict inequality
        rep = run_harness(HarnessConfig(trials=40, max_degree=4, curve_family="circle", seed=2))
        assert rep.min_slack == 0


class TestReplay:
    def test_round_trip_same_verdict(self):
        rng = np.random.default_rng(29)
        for fam in ("circle", "square"):
            cfg = HarnessConfig(trials=1, max_degree=6, curve_family=fam, seed=0)
            for _ in range(6):
                inst = random_instance(rng, cfg, min_on_curve=1)
                direct = measure_instance(inst)
                verdict = replay(inst.to_json())
                assert verdict["measured"] == direct
                assert verdict["bound"] == inst.bound
                assert verdict["holds"] == (direct >= inst.bound)

    def test_serialization_is_json(self):
        rng = np.random.default_rng(1)
        inst = random_instance(
            rng, HarnessConfig(trials=1, curve_family="trig-perturbed", seed=0), min_on_curve=1
        )
        blob = json.dumps(inst.to_json(), sort_keys=True)
        assert json.loads(blob)["planted"]["lambda"] == inst.lam

    @pytest.mark.parametrize("bound", [7.5, "7", True], ids=["fraction", "string", "bool"])
    def test_bound_read_as_a_config_integer(self, bound):
        # they were compared as int(bound): 7, 7 and 1
        inst = {
            "polynomial": {"real_coeffs": [-1.0, 1.0]},
            "curve": "unit-circle",
            "line": {"angle": 0.3},
            "planted": {"m": 0, "lambda": 1, "bound": bound, "on_curve_params": [0.0]},
        }
        with pytest.raises(ValueError, match=f"^bound must be an integer, not {bound!r}$"):
            replay(inst)
        with pytest.raises(ValueError, match=f"^trials must be an integer, not {bound!r}$"):
            HarnessConfig.from_json({"trials": bound})
        inst["planted"]["bound"] = 7.0
        assert replay(inst) == {"measured": 2, "bound": 7, "holds": False}


class TestDraws:
    """The planted instances are fixed per seed: the values and generator states that Generator.choice gave."""

    def test_replacements_draw_what_choice_draws(self):
        # random_instance draws choice(n) as integers(0, n), the multiplicities and the weighted regions as below,
        # and six scalar uniform draws as one of size 6
        from zerowind.harness import _multiplicity, _region

        for seed in range(50):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert _multiplicity(ours) == theirs.choice([1, 1, 1, 1, 2, 2, 3])
                assert _region(ours) == theirs.choice(["inside", "on", "outside"], p=[0.4, 0.3, 0.3])
                for n in range(3, 8):
                    assert ours.integers(0, n) == theirs.choice(n)
            # a trig-perturbed curve's six harmonic coefficients come from one draw
            assert ours.uniform(-0.03, 0.03, size=6).tolist() == [theirs.uniform(-0.03, 0.03) for _ in range(6)]
            assert ours.random() == theirs.random()

    def test_circle_sites_are_the_scalar_points(self):
        # bit for bit, signed zeros included
        from zerowind.harness import _circle_sites

        bits = [(z.real.hex(), z.imag.hex()) for z in _circle_sites()]
        curve = unit_circle()
        expected = [(z.real.hex(), z.imag.hex()) for z in (curve.point(np.int64(k) / 720.0) for k in range(720))]
        assert bits == expected
        assert all(type(z) is complex for z in _circle_sites())


class TestPinnedInstances:
    """Every family's instances under the option sets in use, pinned by one digest over seeds 0-99."""

    # sha256 of every request below in order: the instance's canonical JSON, or for a request that cannot be
    # placed the words its refusal starts with, then the generator's next random()
    INSTANCES_SHA256 = "7c4c08ea067ad94cfc9d48d60534b24a894bd044a392a4eaafd48d262d3d1e08"
    OPTION_SETS = ({}, {"min_on_curve": 1}, {"min_on_curve": 1, "max_multiplicity": 1, "separation": 0.7})
    UNPLACEABLE = "could not place separated roots"

    def test_seeds_0_to_99(self):
        digest, refused = hashlib.sha256(), 0
        for family in FAMILIES:
            cfg = HarnessConfig(trials=1, curve_family=family)
            for options in self.OPTION_SETS:
                for seed in range(100):
                    rng = np.random.default_rng(seed)
                    try:
                        inst = random_instance(rng, cfg, **options)
                    except (RuntimeError, ValueError) as exc:  # RuntimeError before the refusal was typed
                        assert str(exc).startswith(self.UNPLACEABLE)
                        digest.update(self.UNPLACEABLE.encode())
                        refused += 1
                    else:
                        digest.update(json.dumps(inst.to_json(), sort_keys=True, separators=(",", ":")).encode())
                    digest.update(b" %r\n" % rng.random())
        assert refused == 4  # L-shapes at separation 0.7
        assert digest.hexdigest() == self.INSTANCES_SHA256


class TestWorkBudget:
    """Drawing planted instances calls no Generator.choice and evaluates no scalar curve point.

    Generating the ``detour`` benchmark's seed-1 pool took 8,836 ``choice``
    calls, about 8 us each, mostly argument checks, and 5,068 scalar
    ``JordanCurve.point`` calls on the shared unit circle, about 12 us each.
    The draws are now made with ``integers`` and ``random`` directly, and the
    circle's sites come from one cached table.  Any other family evaluates
    the sites of one placement attempt in one ``points`` call.
    """

    def test_planted_trig_pool(self, monkeypatch):
        # each trial evaluated its planted sites one scalar point at a time, 2.8 points per trial on this pool
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import zerowind.harness
        from workloads import WORKLOADS

        wl = WORKLOADS["planted-trig"]
        pool = wl.inputs(1, wl.pool_size)
        point, points, multiplicity = JordanCurve.point, JordanCurve.points, zerowind.harness._multiplicity
        scalar, sizes, sites = [], [], []

        def counted_point(self, t):
            scalar.append(t)
            return point(self, t)

        def counted_points(self, t):
            sizes.append(np.size(t))
            return points(self, t)

        def counted_multiplicity(rng):
            sites.append(1)  # one draw per site
            return multiplicity(rng)

        monkeypatch.setattr(JordanCurve, "point", counted_point)
        for cfg in pool:
            assert run_harness(cfg).all_hold
        assert scalar == []

        # with one placement attempt per draw, the attempt's sites take one points call and nothing else does
        monkeypatch.setattr(zerowind.harness, "_ATTEMPTS", 1)
        monkeypatch.setattr(zerowind.harness, "_multiplicity", counted_multiplicity)
        monkeypatch.setattr(JordanCurve, "points", counted_points)
        placed = 0
        for cfg in pool:
            sizes.clear()
            sites.clear()
            try:
                random_instance(np.random.default_rng(cfg.seed), cfg)
                placed += 1
            except ValueError:  # its first attempt placed no separated roots
                pass
            assert sizes == [len(sites)]
        assert placed > 400

    def test_detour_pool(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import WORKLOADS

        calls = {"choice": 0, "point": 0}

        class CountingGenerator(np.random.Generator):
            def choice(self, *args, **kwargs):
                calls["choice"] += 1
                return super().choice(*args, **kwargs)

        point = JordanCurve.point

        def counted_point(self, t):
            calls["point"] += 1
            return point(self, t)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(np.random.PCG64(seed)))
        monkeypatch.setattr(JordanCurve, "point", counted_point)
        pool = WORKLOADS["detour"].inputs(1, WORKLOADS["detour"].pool_size)
        assert len(pool) == 240
        assert calls == {"choice": 0, "point": 0}


class TestOnCurveParams:
    """Each planted parameter t names an on-curve site: the polynomial vanishes at curve.point(t), on the curve."""

    def test_every_on_curve_site_has_its_parameter(self, monkeypatch):
        planted = []  # the (root, multiplicity) pairs each instance's polynomial is built from
        from_roots = Polynomial.from_roots.__func__

        def recorded(cls, roots, leading=1.0):
            planted.append(list(roots))
            return from_roots(cls, roots, leading)

        monkeypatch.setattr(Polynomial, "from_roots", classmethod(recorded))
        checked = 0
        for family in FAMILIES:
            cfg = HarnessConfig(trials=1, curve_family=family)
            for options in TestPinnedInstances.OPTION_SETS:
                for seed in range(50):
                    planted.clear()
                    try:
                        inst = random_instance(np.random.default_rng(seed), cfg, **options)
                    except ValueError:  # L-shapes at separation 0.7 are refused at some seeds
                        continue
                    (roots,) = planted
                    kinds = [loc.kind for loc in classify_points(inst.curve, [z for z, _ in roots])]
                    on = [mult for (_, mult), kind in zip(roots, kinds) if kind == "on-curve"]
                    assert (len(inst.on_curve_params), inst.lam) == (len(on), sum(on))
                    points = [inst.curve.point(t) for t in inst.on_curve_params]
                    assert all(loc.kind == "on-curve" for loc in classify_points(inst.curve, points))
                    scale = sum(abs(c) for c in inst.polynomial.coeffs)
                    for z in points:
                        assert abs(inst.polynomial(z)) <= 64 * np.finfo(float).eps * scale
                    checked += len(points)
        assert checked > 700
