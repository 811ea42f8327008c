"""Seeded scenario configs for the benchmark workloads.

A run is a closed loop of passes. Each pass is a fixed list of op slots, and
each slot draws its parameters from a generator seeded by (workload, seed,
pass), so one seed always yields the same configs while every pass sees fresh
ones (nothing an in-process memo could replay). Parameters move only inside
ranges that keep each op's work fixed: composite and theta sweeps keep the sum
of their angles, detuning sweeps keep max|delta|/rabi, two-qubit runs keep
splitting/envelope, dark-state runs keep duration * max amplitude, and the
register sweep keeps its grid size. Run time therefore does not depend on the
seed.

Seed 0 is the default seed. Its first pass also runs each scenario's built-in
default config, and every op of that pass has a committed reference output.

Stdlib only: the benchmark parent and its tests import this without numpy.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

DEFAULT_SEED = 0

# Text of nvholo.cli.DEFAULT_CONFIGS at the commit that defined the benchmark;
# make_reference.py checks that each gives the same bytes as the CLI default.
DEFAULT_CONFIGS = {
    "theta-sweep": "[scenario]\nid = theta-sweep\n",
    "detune-sweep": "[scenario]\nid = detune-sweep\n",
    "composite": (
        "[scenario]\nid = composite\n\n"
        "[noise]\nenabled = true\nt1_us = 100.0\nt2_us = 50.0\n"
    ),
    "two-qubit-pi2": "[scenario]\nid = two-qubit-pi2\n",
    "three-qubit-sweep": (
        "[scenario]\nid = three-qubit-sweep\n\n"
        "[detunings]\ndelta1 = 0.0:600.0:15.0\ndelta2 = 450.0\ndelta3 = 450.0\n"
    ),
    "three-qubit-time": (
        "[scenario]\nid = three-qubit-time\n\n"
        "[detunings]\nsets = 300.0,450.0,450.0; 600.0,450.0,450.0\n"
    ),
    "pi3": "[scenario]\nid = pi3\n",
    "dark-states": "[scenario]\nid = dark-states\n",
    "fidelity-compare": (
        "[scenario]\nid = fidelity-compare\n\n"
        "[detunings]\ndelta1 = 450.0\ndelta2 = 450.0\ndelta3 = 450.0\n\n"
        "[noise]\nenabled = true\nt1_us = 100.0\nt2_us = 50.0\n"
    ),
}


class Op(NamedTuple):
    slot: str
    scenario: str
    config: str


def _num(value: float) -> str:
    return repr(round(value, 6))


def _sweep(start: float, step: float, points: int) -> str:
    # stop sits half a step past the last point so rounding cannot drop it
    stop = start + (points - 0.5) * step
    return f"{start!r}:{stop!r}:{step!r}"


def _ini(*sections) -> str:
    blocks = []
    for name, entries in sections:
        lines = [f"[{name}]"] + [f"{key} = {value}" for key, value in entries]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _noise(rng: random.Random):
    t1 = rng.uniform(60.0, 150.0)
    t2 = t1 * rng.uniform(0.3, 1.5)
    return ("noise", [("enabled", "true"), ("t1_us", _num(t1)), ("t2_us", _num(t2))])


def _rotation(rng: random.Random, top: float):
    return ("initial_rotation_rad", _num(rng.uniform(0.0, top)))


# --- sweeps-2level ---------------------------------------------------------


def _composite(rng, rotated):
    # two angles centred on pi: the angle sum, and with it the step count, is fixed
    rabi = round(rng.uniform(10.0, 20.0), 6)
    half = rng.uniform(0.6, 2.4)
    scenario = [("id", "composite"), ("sweep", _sweep(math.pi - half, 2.0 * half, 2))]
    if rotated:
        scenario.append(_rotation(rng, math.pi))
    return _ini(("scenario", scenario), ("pulses", [("rabi_mhz", _num(rabi))]), _noise(rng))


def _detune(rng, noisy):
    # max|delta| = 2 rabi keeps 628 steps per trajectory
    rabi = round(rng.uniform(10.0, 20.0), 6)
    scenario = [
        ("id", "detune-sweep"),
        ("sweep", _sweep(-2.0 * rabi, rabi * 2.0 / 3.0, 7)),
        _rotation(rng, math.pi / 2.0),
    ]
    sections = [("scenario", scenario), ("pulses", [("rabi_mhz", _num(rabi))])]
    if noisy:
        sections.append(_noise(rng))
    return _ini(*sections)


def _theta_noisy(rng):
    half = rng.uniform(1.0, 2.8)
    scenario = [
        ("id", "theta-sweep"),
        ("sweep", _sweep(math.pi - half, 2.0 * half / 8.0, 9)),
        _rotation(rng, math.pi),
    ]
    rabi = rng.uniform(10.0, 20.0)
    return _ini(("scenario", scenario), ("pulses", [("rabi_mhz", _num(rabi))]), _noise(rng))


# --- long-trajectories -----------------------------------------------------


def _two_qubit(rng):
    envelope = round(rng.uniform(0.8, 1.5), 6)
    pulses = [
        ("drive_mhz", _num(rng.uniform(1.2, 2.4))),
        ("splitting_mhz", _num(envelope * 10.0)),
        ("envelope_mhz", _num(envelope)),
    ]
    detunings = [(f"delta{i}", _num(rng.uniform(-5.0, 5.0))) for i in (1, 2, 3)]
    scenario = [("id", "two-qubit-pi2"), ("initial_level", str(rng.choice((0, 1))))]
    return _ini(("scenario", scenario), ("pulses", pulses), ("detunings", detunings))


def _dark(rng):
    duration = round(rng.uniform(0.5, 1.5), 6)
    weights = [rng.uniform(0.5, 1.0) for _ in range(6)]
    weights[rng.randrange(6)] = 1.0
    amps = ",".join(_num(7.5 / duration * w) for w in weights)
    pulses = [("drive_amplitudes_mhz", amps), ("duration_us", _num(duration))]
    return _ini(("scenario", [("id", "dark-states")]), ("pulses", pulses))


def _pi3(rng):
    scenario = [("id", "pi3"), ("initial_level", str(rng.choice((0, 4))))]
    return _ini(("scenario", scenario), ("pulses", [("rabi_mhz", _num(rng.uniform(10.0, 20.0)))]))


# --- register-loop ---------------------------------------------------------


def _register_sweep(rng):
    # 121 grid points keep the O(n^2) phase probes at a fixed size
    grid = _sweep(round(rng.uniform(0.0, 100.0), 6), round(rng.uniform(3.0, 6.0), 6), 121)
    detunings = [("delta1", grid), ("delta2", "450.0"), ("delta3", "450.0")]
    return _ini(("scenario", [("id", "three-qubit-sweep")]), ("detunings", detunings))


def _register_time(rng):
    triples = [
        ",".join(_num(rng.uniform(0.0, 600.0)) for _ in range(3))
        for _ in range(rng.randint(1, 4))
    ]
    return _ini(
        ("scenario", [("id", "three-qubit-time")]),
        ("detunings", [("sets", "; ".join(triples))]),
    )


def _fidelity(rng):
    held = _num(rng.uniform(300.0, 600.0))
    detunings = [("delta1", held), ("delta2", held), ("delta3", _num(rng.uniform(300.0, 600.0)))]
    return _ini(("scenario", [("id", "fidelity-compare")]), ("detunings", detunings), _noise(rng))


# Each slot is (name, scenario, generator). Slot mixes put the median op in the
# middle of one op kind and the tail percentiles inside the heaviest kind.
WORKLOADS = {
    "sweeps-2level": (
        ("composite-a", "composite", lambda rng: _composite(rng, False)),
        ("composite-b", "composite", lambda rng: _composite(rng, True)),
        ("detune-noisy-a", "detune-sweep", lambda rng: _detune(rng, True)),
        ("detune-noisy-b", "detune-sweep", lambda rng: _detune(rng, True)),
        ("detune-ideal", "detune-sweep", lambda rng: _detune(rng, False)),
        ("theta-noisy-a", "theta-sweep", _theta_noisy),
        ("theta-noisy-b", "theta-sweep", _theta_noisy),
    ),
    "long-trajectories": (
        ("two-qubit-a", "two-qubit-pi2", _two_qubit),
        ("two-qubit-b", "two-qubit-pi2", _two_qubit),
        ("dark-a", "dark-states", _dark),
        ("dark-b", "dark-states", _dark),
        ("pi3-a", "pi3", _pi3),
        ("pi3-b", "pi3", _pi3),
    ),
    "register-loop": (
        ("sweep-a", "three-qubit-sweep", _register_sweep),
        ("sweep-b", "three-qubit-sweep", _register_sweep),
        ("time-a", "three-qubit-time", _register_time),
        ("time-b", "three-qubit-time", _register_time),
        ("fidelity-a", "fidelity-compare", _fidelity),
        ("fidelity-b", "fidelity-compare", _fidelity),
    ),
}


def pass_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """Configs of one pass; the first pass of the default seed leads with the
    built-in default config of each of the workload's scenarios."""
    slots = WORKLOADS[workload]
    ops = []
    if seed == DEFAULT_SEED and pass_index == 0:
        for scenario in dict.fromkeys(s for _, s, _ in slots):
            ops.append(Op(f"default-{scenario}", scenario, DEFAULT_CONFIGS[scenario]))
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    ops.extend(Op(name, scenario, make(rng)) for name, scenario, make in slots)
    return ops
