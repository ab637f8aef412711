"""Canonical presets: parameter-exact configurations for the reference runs.

Values here are frozen; `preset_fingerprint` hashes a canonical
serialization so any accidental drift fails the release tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .channel import ChannelScenario, make_channel_scenario
from .errors import ConfigurationError
from .qic import Generator, GridAxis, GridSpec
from .smearing import RadialSmearing


def _origin(d: int) -> tuple[float, ...]:
    return (0.0,) * d


def table1_scenario(d: int) -> ChannelScenario:
    """Sender ball of radius 1 at t=0; receiver shells (0,0.9), (1.1,2.9),
    (3.1,4) at t=2 with couplings 0.2; sender coupling 1 encodes bit 1."""
    alice = Generator(
        smearing=RadialSmearing.hard_ball(1.0, _origin(d), d),
        coupling_time=0.0,
        coupling=1.0,
    )
    shells = ((0.0, 0.9), (1.1, 2.9), (3.1, 4.0))
    bobs = tuple(
        Generator(
            smearing=RadialSmearing.hard_shell(r, rr, _origin(d), d),
            coupling_time=2.0,
            coupling=0.2,
        )
        for r, rr in shells
    )
    return make_channel_scenario(alice, bobs, d)


def single_qic_scenario(d: int) -> list[Generator]:
    """One Gaussian emitter, sigma = 0.2, centered at the origin, firing at
    t = 0.  Default snapshot times: 0, 2, 4."""
    return [
        Generator(
            smearing=RadialSmearing.gaussian(0.2, _origin(d), d),
            coupling_time=0.0,
            coupling=1.0,
        )
    ]


def shockwave_scenario(d: int) -> list[Generator]:
    """Three Gaussian emitters, sigma = 0.2, fired at t_i = i from
    x_i = (5 + 1.5 i, 0[, 0]).  Default snapshot time: 8."""
    gens = []
    for i in (1, 2, 3):
        center = (5.0 + 1.5 * i,) + (0.0,) * (d - 1)
        gens.append(
            Generator(
                smearing=RadialSmearing.gaussian(0.2, center, d),
                coupling_time=float(i),
                coupling=1.0,
            )
        )
    return gens


# name -> (kind, builder, default snapshot times, default grid's x and y axes)
PRESETS = {
    "table1": ("channel", table1_scenario, (), None),
    "single": ("evolve", single_qic_scenario, (0.0, 2.0, 4.0),
               (GridAxis(-6.0, 6.0, 0.05), GridAxis(-6.0, 6.0, 0.05))),
    "shockwave": ("evolve", shockwave_scenario, (8.0,),
                  (GridAxis(0.0, 16.0, 0.1), GridAxis(-8.0, 8.0, 0.1))),
}


def default_grid(name: str, d: int) -> GridSpec:
    """Figure-reproduction grids (implementation choices, desk-scale); z = 0 in d=3."""
    axes = PRESETS[name][3] if name in PRESETS else None
    if axes is None:
        raise ConfigurationError(f"no default grid for preset {name!r}")
    return GridSpec(axes=axes + ((0.0,) if d == 3 else ()))


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    dimension: int
    kind: str                  # "channel" or "evolve"
    payload: object            # ChannelScenario or list[Generator]
    default_times: tuple[float, ...]
    grid: GridSpec | None


def preset(name: str, d: int) -> ScenarioPreset:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {tuple(PRESETS)}")
    kind, build, times, axes = PRESETS[name]
    return ScenarioPreset(name, d, kind, build(d), times,
                          None if axes is None else default_grid(name, d))


def _serialize_generator(g: Generator) -> dict:
    s = g.smearing
    return {
        "kind": s.kind,
        "dimension": s.dimension,
        "center": list(s.center),
        "channel": "field",  # frozen: preset fingerprints and reports hash this key
        "sigma": s.sigma,
        "r_inner": s.r_inner,
        "r_outer": s.r_outer,
        "amplitude": s.amplitude,
        "coupling_time": g.coupling_time,
        "coupling": g.coupling,
    }


def serialize_preset(name: str, d: int) -> str:
    """Canonical JSON of a preset's physical parameters."""
    p = preset(name, d)
    if p.kind == "channel":
        sc = p.payload
        body = {
            "alice": _serialize_generator(sc.alice),
            "bobs": [_serialize_generator(b) for b in sc.bobs],
        }
    else:
        body = {"generators": [_serialize_generator(g) for g in p.payload]}
    doc = {"name": name, "dimension": d, "times": list(p.default_times), **body}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def preset_fingerprint(name: str, d: int) -> str:
    return hashlib.sha256(serialize_preset(name, d).encode()).hexdigest()
