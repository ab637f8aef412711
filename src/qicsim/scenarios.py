"""Scenario configs: the JSON scenario format and the presets written in it.

A config's ``scenario`` is either a channel, ``{"alice": gen, "bobs":
[gen, ...]}``, or an emitter set for `evolve`, ``{"generators": [gen,
...]}``; `scenario_from_config` builds it, refusing any malformed or
unread key with a one-line `ConfigurationError`.  A preset is exactly the
config a ``--config`` file would carry: ``preset(name, d)`` returns its
``scenario``, plus default snapshot times ``t`` and a ``grid`` for the
evolve presets.

Values here are frozen; `preset_fingerprint` hashes a canonical
serialization so any accidental drift fails the release tests.
"""

from __future__ import annotations

import hashlib
import json

from .channel import ChannelScenario, make_channel_scenario
from .errors import ConfigurationError
from .qic import Generator
from .smearing import GAUSSIAN, HARD_SHELL, RadialSmearing

_GEN_COMMON = ("t", "coupling", "amplitude")  # numeric keys of every generator kind


def _reject_unknown(obj: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {context} keys: {unknown}")


def _require(obj: dict, keys, context: str) -> None:
    for key in keys:
        if key not in obj:
            raise ConfigurationError(f"{context} missing {key!r}")


def _number(value, what: str, kind=float):
    """``value`` as a ``kind``: never a boolean, and a whole number for ``int``."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        num = float(value)
        if kind is int and not num.is_integer():
            raise ValueError(value)
        return kind(num)
    except (TypeError, ValueError, OverflowError) as exc:
        whole = " whole" if kind is int else ""
        raise ConfigurationError(f"{what}: {value!r} is not a{whole} number") from exc


def _typed(value, kind, what: str):
    if not isinstance(value, kind):
        raise ConfigurationError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _generator(spec: dict, dimension: int, what: str) -> Generator:
    _require(_typed(spec, dict, what), ("kind", "center", "t"), "generator definition")
    kind = _typed(spec["kind"], str, "generator key 'kind'")
    shape = {GAUSSIAN: ("sigma",), HARD_SHELL: ("r_inner", "r_outer")}.get(kind)
    if shape is None:
        raise ConfigurationError(f"unknown generator kind {kind!r}")
    _reject_unknown(spec, {"kind", "center", *shape, *_GEN_COMMON}, "generator")
    _require(spec, shape, f"{kind} generator")
    num = {key: _number(spec.get(key, 1.0), f"generator key {key!r}") for key in shape + _GEN_COMMON}
    center = tuple(_number(c, "generator key 'center'")
                   for c in _typed(spec["center"], list, "generator key 'center'"))
    smearing = RadialSmearing(kind, dimension, center, amplitude=num["amplitude"],
                              **{key: num[key] for key in shape})
    return Generator(smearing=smearing, coupling_time=num["t"], coupling=num["coupling"])


def scenario_from_config(scenario, d: int, kind: str):
    """The `ChannelScenario` (``kind`` "channel") or the list of generators
    (``kind`` "evolve") that a config's ``scenario`` object describes."""
    if not isinstance(scenario, dict):
        raise ConfigurationError("inline scenario must be an object")
    if kind == "channel":
        _reject_unknown(scenario, {"alice", "bobs"}, "scenario")
        _require(scenario, ("alice", "bobs"), "inline scenario")
        alice = _generator(scenario["alice"], d, "scenario key 'alice'")
        bobs = [_generator(b, d, "each of scenario key 'bobs'")
                for b in _typed(scenario["bobs"], list, "scenario key 'bobs'")]
        return make_channel_scenario(alice, bobs, d)
    _reject_unknown(scenario, {"generators"}, "scenario")
    _require(scenario, ("generators",), "inline scenario")
    gens = [_generator(g, d, "each of scenario key 'generators'")
            for g in _typed(scenario["generators"], list, "scenario key 'generators'")]
    if not gens:
        raise ConfigurationError("inline scenario has no generators")
    return gens


def _shell(r_inner: float, r_outer: float, t: float, coupling: float, d: int) -> dict:
    return {"kind": "hard_shell", "r_inner": r_inner, "r_outer": r_outer,
            "center": [0.0] * d, "t": t, "coupling": coupling}


def _gaussian(x: float, t: float, d: int) -> dict:
    return {"kind": "gaussian", "sigma": 0.2, "center": [x] + [0.0] * (d - 1), "t": t}


def _grid(x: str, y: str, d: int) -> str:
    """Figure-reproduction grids (implementation choices, desk-scale); z = 0 in d=3."""
    return f"x={x},y={y}" + (",z=0" if d == 3 else "")


def _table1(d: int) -> dict:
    """Sender ball of radius 1 at t=0; receiver shells (0,0.9), (1.1,2.9),
    (3.1,4) at t=2 with couplings 0.2; sender coupling 1 encodes bit 1."""
    shells = ((0.0, 0.9), (1.1, 2.9), (3.1, 4.0))
    return {"scenario": {"alice": _shell(0.0, 1.0, 0.0, 1.0, d),
                         "bobs": [_shell(r, rr, 2.0, 0.2, d) for r, rr in shells]}}


def _single(d: int) -> dict:
    """One Gaussian emitter, sigma = 0.2, centered at the origin, firing at
    t = 0; snapshot times 0, 2, 4."""
    return {"scenario": {"generators": [_gaussian(0.0, 0.0, d)]},
            "t": [0.0, 2.0, 4.0], "grid": _grid("-6:6:0.05", "-6:6:0.05", d)}


def _shockwave(d: int) -> dict:
    """Three Gaussian emitters, sigma = 0.2, fired at t_i = i from
    x_i = (5 + 1.5 i, 0[, 0]); snapshot time 8."""
    return {"scenario": {"generators": [_gaussian(5.0 + 1.5 * i, float(i), d) for i in (1, 2, 3)]},
            "t": [8.0], "grid": _grid("0:16:0.1", "-8:8:0.1", d)}


PRESETS = {"table1": _table1, "single": _single, "shockwave": _shockwave}


def preset(name: str, d: int) -> dict:
    """The config of preset ``name`` in dimension ``d``: what a ``--config``
    file naming the same scenario, times and grid would carry."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {tuple(PRESETS)}")
    return PRESETS[name](d)


def table1_scenario(d: int) -> ChannelScenario:
    """The table1 preset's channel: receivers inside, straddling and outside."""
    return scenario_from_config(preset("table1", d)["scenario"], d, "channel")


def single_qic_scenario(d: int) -> list[Generator]:
    """The single preset's one emitter."""
    return scenario_from_config(preset("single", d)["scenario"], d, "evolve")


def shockwave_scenario(d: int) -> list[Generator]:
    """The shockwave preset's three pre-timed emitters."""
    return scenario_from_config(preset("shockwave", d)["scenario"], d, "evolve")


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
    cfg = preset(name, d)
    if "alice" in cfg["scenario"]:
        sc = scenario_from_config(cfg["scenario"], d, "channel")
        body = {"alice": _serialize_generator(sc.alice), "bobs": list(map(_serialize_generator, sc.bobs))}
    else:
        gens = scenario_from_config(cfg["scenario"], d, "evolve")
        body = {"generators": list(map(_serialize_generator, gens))}
    doc = {"name": name, "dimension": d, "times": cfg.get("t", []), **body}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def preset_fingerprint(name: str, d: int) -> str:
    return hashlib.sha256(serialize_preset(name, d).encode()).hexdigest()
