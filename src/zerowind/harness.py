"""Randomized property harness.

Instances are built from planted factors, so the interior and boundary zero
counts are known exactly without trusting the root finder; the root finder
and the preimage counter are then validated against the plant.  Every bound
failure is recorded and serialized for replay.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from ._numeric import is_integer
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
        for key in ("trials", "max_degree", "seed"):
            object.__setattr__(self, key, _integer(key, getattr(self, key)))
        if self.curve_family not in _FAMILIES:
            raise ValueError(f"curve_family must be one of {_FAMILIES}")
        if self.trials < 1 or self.max_degree < 1:
            raise ValueError("trials and max_degree must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "HarnessConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"a harness config must be a JSON object, not {obj!r}")
        if extra := set(obj) - set(cls.__dataclass_fields__):
            raise ValueError(f"unknown harness config keys: {sorted(extra)}")
        return cls(**obj)


def _integer(key: str, value) -> int:
    """``value`` as an int when ``is_integer`` takes it; else refused."""
    if not is_integer(value):
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
        planted = {"m": self.m, "lambda": self.lam, "bound": self.bound, "on_curve_params": list(self.on_curve_params)}
        return {"polynomial": self.polynomial.to_json(), "curve": self.curve.to_json(), "line": self.line.to_json(),
                "planted": planted}


# ---------------------------------------------------------------------------
# curve families and planting sites: a family draws its curve, then one
# (site, alpha) per root with ``site(region)``.  A site is (point, t, scale):
# the point itself, or None for ``scale * curve(t)``, or ``curve(t)`` where
# scale is None.  alpha is the exact interior angle of a site on the curve,
# which is at parameter t; off the curve alpha is None.

_LSHAPE = (0 + 0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 0 + 2j)
_LSHAPE_CELLS = (0.5 + 0.5j, 1.5 + 0.5j, 0.5 + 1.5j)  # inside sites: a cell's centre, moved by up to 0.2
_LSHAPE_OUTSIDE = (1.6 + 1.6j, -0.6 - 0.6j, 2.8 + 0.4j, 0.4 + 2.8j, 1.4 + 1.8j)  # moved by up to 0.1


class _Rays:
    """The unit circle, or a circle perturbed by three harmonics: every site is on the ray through t = k / 720."""

    def __init__(self, rng: np.random.Generator, perturbed: bool):
        self.rng, self.perturbed, self.curve = rng, perturbed, unit_circle()
        if perturbed:  # one draw of six gives the values and the generator state of six scalar draws
            ab = rng.uniform(-0.03, 0.03, size=6).tolist()
            self.curve = radial_trig_curve(list(zip(ab[::2], ab[1::2])))

    def _ray(self, k, scale: float | None) -> tuple:
        """The site ``scale * curve(k / 720)``; the circle's point is read from its table at once."""
        if self.perturbed:
            return None, k / 720.0, scale
        z = _circle_sites()[k]
        return (z if scale is None else complex(scale * z)), k / 720.0, None

    def site(self, region: str) -> tuple:
        k = int(self.rng.integers(0, 720))  # a Python int: k / 720 is the same float, sooner
        if region == "on":
            return self._ray(k, None), np.pi
        low, width = (0.25, 0.55) if region == "inside" else (1.3, 1.2)
        return self._ray(k, low + width * self.rng.random()), None


class _Polygon:
    """A polygon family: a site on the curve is a corner or a rational point inside an edge, with even odds."""

    def site(self, region: str) -> tuple:
        if region != "on":
            return (self.point(region), None, None), None
        rng, curve = self.rng, self.curve
        if rng.random() < 0.5:
            c = curve.corners[rng.integers(0, len(curve.corners))]
            return (c.location, c.parameter, None), c.interior_angle
        i, br = int(rng.integers(0, len(curve.segments))), curve.breaks
        frac = int(rng.integers(2, 9)) / 10.0
        return (None, br[i] + frac * (br[i + 1] - br[i]), None), np.pi


class _Square(_Polygon):
    """A square of side 1.4 to 2.2 whose centre is within 0.25 of the origin on each axis."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.center = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        self.side = rng.uniform(1.4, 2.2)
        self.curve = square(self.center, self.side)

    def point(self, region: str) -> complex:
        rng, c, s = self.rng, self.center, self.side
        if region == "inside":
            return c + complex(rng.uniform(-0.3, 0.3) * s, rng.uniform(-0.3, 0.3) * s)
        ang = rng.uniform(0.0, 2 * np.pi)
        return c + s * (1.0 + rng.uniform(0.2, 1.0)) * complex(np.cos(ang), np.sin(ang))


class _LShape(_Polygon):
    """Three unit cells in an L, scaled by 0.6 to 1.1 and shifted to lie about the origin."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.scale = rng.uniform(0.6, 1.1)
        self.shift = complex(rng.uniform(-0.2, 0.2) - self.scale, rng.uniform(-0.2, 0.2) - self.scale)
        self.curve = polygon([self.shift + self.scale * v for v in _LSHAPE])

    def point(self, region: str) -> complex:
        rng = self.rng
        bases, d = (_LSHAPE_CELLS, 0.2) if region == "inside" else (_LSHAPE_OUTSIDE, 0.1)
        base = bases[rng.integers(0, len(bases))]
        return self.shift + self.scale * (base + complex(rng.uniform(-d, d), rng.uniform(-d, d)))


_POLYGONS = {"square": _Square, "lshape": _LShape}


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
    the curve), so m, lam, and the corner bound are exact ground truth.  The
    first ``min_on_curve`` roots go on the curve, all of them when the drawn
    degree is smaller.  A ``max_multiplicity`` that is not an integer of at
    least 1, a ``min_on_curve`` that is not an integer of at least 0, or a NaN
    or negative ``separation`` raises ValueError before any draw.
    """
    if _integer("max_multiplicity", max_multiplicity) < 1:
        raise ValueError(f"max_multiplicity must be at least 1, not {max_multiplicity!r}")
    if _integer("min_on_curve", min_on_curve) < 0:
        raise ValueError(f"min_on_curve must be at least 0, not {min_on_curve!r}")
    if not separation >= 0:
        raise ValueError(f"separation must be at least 0, not {separation!r}")
    kind = cfg.curve_family
    family = _POLYGONS[kind](rng) if kind in _POLYGONS else _Rays(rng, perturbed=kind == "trig-perturbed")
    degree = int(rng.integers(1, cfg.max_degree + 1))

    for _attempt in range(_ATTEMPTS):
        sites, roots = [], []  # each root's site, and its record (multiplicity, region, alpha)
        total = 0
        while total < degree:
            mult = int(min(degree - total, _multiplicity(rng), max_multiplicity))
            region = "on" if len(roots) < min_on_curve else _region(rng)
            site, alpha = family.site(region)
            sites.append(site)
            roots.append((mult, region, alpha))
            total += mult
        # every site of the attempt is drawn first; one evaluation gives each the bits of one curve.point
        at = [t for z, t, _ in sites if z is None]
        zs = iter(family.curve.points(np.array(at)).tolist() if at else ())
        locs = [z if z is not None else next(zs) if s is None else complex(s * next(zs)) for z, _, s in sites]
        if all(abs(locs[i] - locs[j]) >= separation for i in range(len(locs)) for j in range(i + 1, len(locs))):
            break
    else:
        raise ValueError(
            f"could not place separated roots: degree {degree}, separation {separation}, {_ATTEMPTS} attempts"
        )

    lead = rng.uniform(0.6, 1.8) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    f = Polynomial.from_roots([(z, mult) for z, (mult, _, _) in zip(locs, roots)], leading=lead)
    m = lam = corner_sum = 0
    on_params = []
    for (_, t, _), (mult, region, alpha) in zip(sites, roots):
        if region == "inside":
            m += mult
        elif region == "on":
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
    slacks: list[int] = []
    for _ in range(cfg.trials):
        inst = random_instance(rng, cfg, min_on_curve=min_on_curve)
        measured = measure_instance(inst)
        if measured < inst.bound:
            violations.append({"instance": inst.to_json(), "measured": measured, "bound": inst.bound})
        slacks.append(measured - inst.bound)
    return HarnessReport(config=cfg, trials=cfg.trials, violations=tuple(violations), min_slack=min(slacks))


def replay(instance_json: dict) -> dict:
    """Re-run a serialized instance; returns the verdict for round-trip checks.

    Every field is read before the count starts, so a malformed instance
    raises KeyError, TypeError or ValueError without counting anything.
    """
    f = Polynomial.from_json(instance_json["polynomial"])
    curve = JordanCurve.from_json(instance_json["curve"])
    line = Line.from_json(instance_json["line"])
    bound = _integer("bound", instance_json["planted"]["bound"])
    measured = count_preimages(f, curve, line).count
    return {"measured": measured, "bound": bound, "holds": measured >= bound}


def save_replay(instance_json: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_json, fh, indent=2, sort_keys=True)
