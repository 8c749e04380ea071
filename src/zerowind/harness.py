"""Randomized property harness.

Instances are built from planted factors, so the interior and boundary zero
counts are known exactly without trusting the root finder; the root finder
and the preimage counter are then validated against the plant.  Every bound
failure is recorded and serialized for replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .crossings import Line, count_preimages
from .curves import JordanCurve, polygon, radial_trig_curve, square, unit_circle
from .polynomials import Polynomial
from .verify import guarded_ceil

_FAMILIES = ("circle", "trig-perturbed", "square", "lshape")
_ATTEMPTS = 200  # placements tried before a request is refused

# Generator.choice's draws without its argument checks, which take most of
# its time: choice(n) is integers(0, n), and choice with weights p takes the
# first index whose cumulative weight, normalised as choice normalises it,
# exceeds one random().  The values and the generator's states are choice's.
_MULTIPLICITIES = (1, 1, 1, 1, 2, 2, 3)
_REGIONS = ("inside", "on", "outside")
_REGION_CDF = np.array([0.4, 0.3, 0.3]).cumsum()
_REGION_CDF /= _REGION_CDF[-1]


def _multiplicity(rng: np.random.Generator) -> int:
    """A root's multiplicity before capping: 1, 2 or 3 with weights 4, 2 and 1."""
    return _MULTIPLICITIES[rng.integers(0, len(_MULTIPLICITIES))]


def _region(rng: np.random.Generator) -> str:
    """A site's region: inside, on or outside, with weights 0.4, 0.3 and 0.3."""
    return _REGIONS[_REGION_CDF.searchsorted(rng.random(), side="right")]


@cache
def _circle_sites() -> tuple[complex, ...]:
    """The unit circle's points at t = k / 720, k = 0 .. 719, as ``unit_circle().point(k / 720)`` gives them."""
    return tuple(complex(z) for z in unit_circle().points(np.arange(720) / 720.0))


@dataclass(frozen=True)
class HarnessConfig:
    trials: int = 100
    max_degree: int = 6
    curve_family: str = "circle"
    seed: int = 0

    def __post_init__(self):
        if self.curve_family not in _FAMILIES:
            raise ValueError(f"curve_family must be one of {_FAMILIES}")
        if self.trials < 1 or self.max_degree < 1:
            raise ValueError("trials and max_degree must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "max_degree": self.max_degree,
            "curve_family": self.curve_family,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HarnessConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"a harness config must be a JSON object, not {obj!r}")
        extra = set(obj) - {"trials", "max_degree", "curve_family", "seed"}
        if extra:
            raise ValueError(f"unknown harness config keys: {sorted(extra)}")
        counts = {key: _json_int(key, obj.get(key, getattr(cls, key))) for key in ("trials", "max_degree", "seed")}
        family = str(obj.get("curve_family", cls.curve_family))
        return cls(curve_family=family, **counts)


def _json_int(key: str, value) -> int:
    """A JSON integer: an int, or a float with an integer value; a bool, a string or a fraction is refused."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class PlantedInstance:
    """A polynomial with planted roots and the exact bound they imply."""

    polynomial: Polynomial
    curve: JordanCurve
    line: Line
    m: int
    lam: int
    bound: int  # 2m + sum ceil(lam_j alpha_j / pi); reduces to 2m + lam when smooth
    on_curve_params: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "polynomial": self.polynomial.to_json(),
            "curve": self.curve.to_json(),
            "line": self.line.to_json(),
            "planted": {
                "m": self.m,
                "lambda": self.lam,
                "bound": self.bound,
                "on_curve_params": list(self.on_curve_params),
            },
        }


# ---------------------------------------------------------------------------
# curve families and planting sites


def _lshape_vertices(scale: float, shift: complex) -> list[complex]:
    base = [0 + 0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 0 + 2j]
    return [shift + scale * v for v in base]


class _Family:
    """A curve and its planting sites.

    Each site method draws one site as (point, at, scale, alpha, t).  A point
    that the draws fix, or that the unit circle's cached table gives, comes
    as ``point``.  Any other point is None there: it is the curve point at
    parameter ``at``, times ``scale`` unless that is None, and
    ``random_instance`` evaluates all of those of a placement attempt in one
    call.  alpha and t, the exact interior angle and the curve parameter of
    an on-curve site, are None off the curve.
    """

    def __init__(self, curve: JordanCurve, rng: np.random.Generator, kind: str, geom):
        self.curve = curve
        self.rng = rng
        self.kind = kind
        self.geom = geom

    def _ray_site(self, low: float, width: float) -> tuple:
        """The curve point at t = k / 720, scaled by a draw from [low, low + width)."""
        k = self.rng.integers(0, 720)
        scale = low + width * self.rng.random()
        if self.kind == "circle":
            return complex(scale * _circle_sites()[k]), None, None, None, None
        return None, k / 720.0, scale, None, None

    def inside_point(self) -> tuple:
        rng = self.rng
        if self.kind in ("circle", "trig-perturbed"):
            return self._ray_site(0.25, 0.55)
        if self.kind == "square":
            c, s = self.geom
            return c + complex(rng.uniform(-0.3, 0.3) * s, rng.uniform(-0.3, 0.3) * s), None, None, None, None
        s, shift = self.geom
        cell = rng.integers(0, 3)
        anchors = [0.5 + 0.5j, 1.5 + 0.5j, 0.5 + 1.5j]
        jitter = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        return shift + s * (anchors[cell] + jitter), None, None, None, None

    def outside_point(self) -> tuple:
        rng = self.rng
        if self.kind in ("circle", "trig-perturbed"):
            return self._ray_site(1.3, 1.2)
        if self.kind == "square":
            c, s = self.geom
            ang = rng.uniform(0.0, 2 * np.pi)
            return c + s * (1.0 + rng.uniform(0.2, 1.0)) * complex(np.cos(ang), np.sin(ang)), None, None, None, None
        s, shift = self.geom
        picks = [1.6 + 1.6j, -0.6 - 0.6j, 2.8 + 0.4j, 0.4 + 2.8j, 1.4 + 1.8j]
        base = picks[rng.integers(0, len(picks))]
        return shift + s * (base + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))), None, None, None, None

    def boundary_site(self) -> tuple:
        """A site on the curve, with its exact interior angle and curve parameter."""
        rng = self.rng
        if self.kind in ("circle", "trig-perturbed"):
            k = rng.integers(0, 720)
            if self.kind == "circle":
                return _circle_sites()[k], None, None, np.pi, float(k / 720.0)
            t = k / 720.0
            return None, t, None, np.pi, float(t)
        # polygon families: choose a corner or an edge point
        corners = self.curve.corners
        if rng.random() < 0.5:
            c = corners[rng.integers(0, len(corners))]
            return c.location, None, None, c.interior_angle, c.parameter
        k = len(self.curve.segments)
        i = int(rng.integers(0, k))
        frac = rng.integers(2, 9) / 10.0  # interior of the edge, rational offset
        br = self.curve.breaks
        t = br[i] + frac * (br[i + 1] - br[i])
        return None, t, None, np.pi, float(t)


def _make_family(kind: str, rng: np.random.Generator) -> _Family:
    if kind == "circle":
        return _Family(unit_circle(), rng, kind, None)
    if kind == "trig-perturbed":
        # one draw of six gives the values and the generator state of six scalar draws
        ab = rng.uniform(-0.03, 0.03, size=6).tolist()
        return _Family(radial_trig_curve(list(zip(ab[::2], ab[1::2]))), rng, kind, None)
    if kind == "square":
        c = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        s = rng.uniform(1.4, 2.2)
        return _Family(square(c, s), rng, kind, (c, s))
    if kind == "lshape":
        s = rng.uniform(0.6, 1.1)
        shift = complex(rng.uniform(-0.2, 0.2) - s, rng.uniform(-0.2, 0.2) - s)
        return _Family(polygon(_lshape_vertices(s, shift)), rng, kind, (s, shift))
    raise ValueError(kind)


def random_instance(
    rng: np.random.Generator,
    cfg: HarnessConfig,
    min_on_curve: int = 0,
    max_multiplicity: int = 3,
    separation: float = 0.2,
) -> PlantedInstance:
    """Plant factors on a random curve of the configured family.

    Each root's side of the curve is known by construction (interior sites are
    drawn well inside, exterior sites well outside, boundary sites exactly on
    the curve), so m, lam, and the corner bound are exact ground truth.
    A ``max_multiplicity`` below 1 raises ValueError before any draw.
    """
    if not max_multiplicity >= 1:
        raise ValueError(f"max_multiplicity must be at least 1, not {max_multiplicity!r}")
    family = _make_family(cfg.curve_family, rng)
    degree = int(rng.integers(1, cfg.max_degree + 1))

    for _attempt in range(_ATTEMPTS):
        placed: list[tuple[complex | None, int, str, float | None, float | None]] = []
        pending = []  # (index in placed, at, scale) of each site whose point the curve gives
        total = 0
        need_on = min_on_curve
        while total < degree:
            mult = int(min(degree - total, _multiplicity(rng), max_multiplicity))
            if need_on > 0:
                region = "on"
            else:
                region = _region(rng)
            if region == "inside":
                z, at, scale, alpha, t = family.inside_point()
            elif region == "outside":
                z, at, scale, alpha, t = family.outside_point()
            else:
                z, at, scale, alpha, t = family.boundary_site()
                need_on -= 1
            if z is None:
                pending.append((len(placed), at, scale))
            placed.append((z, mult, region, alpha, t))
            total += mult
        if pending:
            # every site of the attempt is drawn first; one evaluation gives each the bits of one curve.point
            zs = family.curve.points(np.array([at for _, at, _ in pending])).tolist()
            for (i, _, scale), z in zip(pending, zs):
                placed[i] = (z if scale is None else complex(scale * z),) + placed[i][1:]
        locs = [p[0] for p in placed]
        if all(abs(locs[i] - locs[j]) >= separation for i in range(len(locs)) for j in range(i + 1, len(locs))):
            break
    else:
        raise ValueError(
            f"could not place separated roots: degree {degree}, separation {separation}, {_ATTEMPTS} attempts"
        )

    lead = rng.uniform(0.6, 1.8) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    f = Polynomial.from_roots([(z, mult) for z, mult, _, _, _ in placed], leading=lead)

    m = sum(mult for _, mult, region, _, _ in placed if region == "inside")
    lam = 0
    corner_sum = 0
    on_params = []
    for _, mult, region, alpha, t in placed:
        if region != "on":
            continue
        lam += mult
        corner_sum += guarded_ceil(mult * alpha / np.pi)
        on_params.append(float(t))

    return PlantedInstance(
        polynomial=f,
        curve=family.curve,
        line=Line(rng.uniform(0.0, np.pi)),
        m=m,
        lam=lam,
        bound=2 * m + corner_sum,
        on_curve_params=tuple(on_params),
    )


# ---------------------------------------------------------------------------
# running trials


@dataclass(frozen=True)
class HarnessReport:
    config: HarnessConfig
    trials: int
    violations: tuple[dict, ...]
    min_slack: int

    @property
    def reruns(self) -> int:
        """Always 0: a count is a root count, with no finer scan to re-run; reports keep the key."""
        return 0

    @property
    def all_hold(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "trials": self.trials,
            "violations": list(self.violations),
            "min_slack": self.min_slack,
            "reruns": self.reruns,
            "all_hold": self.all_hold,
        }


def measure_instance(inst: PlantedInstance) -> int:
    """Distinct line preimages, letting the counter classify roots on its own."""
    return count_preimages(inst.polynomial, inst.curve, inst.line).count


def run_harness(cfg: HarnessConfig, min_on_curve: int = 0) -> HarnessReport:
    rng = np.random.default_rng(cfg.seed)
    violations: list[dict] = []
    min_slack = None
    for _ in range(cfg.trials):
        inst = random_instance(rng, cfg, min_on_curve=min_on_curve)
        measured = measure_instance(inst)
        if measured < inst.bound:
            violations.append({"instance": inst.to_json(), "measured": measured, "bound": inst.bound})
        slack = measured - inst.bound
        min_slack = slack if min_slack is None else min(min_slack, slack)
    return HarnessReport(
        config=cfg,
        trials=cfg.trials,
        violations=tuple(violations),
        min_slack=int(min_slack if min_slack is not None else 0),
    )


def replay(instance_json: dict) -> dict:
    """Re-run a serialized instance; returns the verdict for round-trip checks.

    Every field is read before the count starts, so a malformed instance
    raises KeyError, TypeError or ValueError without counting anything.
    """
    f = Polynomial.from_json(instance_json["polynomial"])
    curve = JordanCurve.from_json(instance_json["curve"])
    line = Line.from_json(instance_json["line"])
    bound = _json_int("bound", instance_json["planted"]["bound"])
    measured = count_preimages(f, curve, line).count
    return {"measured": measured, "bound": bound, "holds": measured >= bound}


def save_replay(instance_json: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_json, fh, indent=2, sort_keys=True)
