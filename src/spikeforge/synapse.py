"""Nanodevice synapse and synaptic-circuit models.

A synapse is in exactly one of four modes each timestep (idle, transmit,
potentiate, depress), decided by `mode_from_voltage` from which spikes are
present and from the voltage the user's circuit equation develops across
the device. Conductance updates replay measured device tables: per
direction, a family of conductance-vs-pulse-number curves with one row per
pulse amplitude. A device programmed by identical pulses is the one-row
case, whose single ladder every amplitude selects, so `step_device` is the
one stepping rule. The engine's synapse kernel applies these per-synapse
rules to whole matrices.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from spikeforge import expr
from spikeforge.errors import SpecError

# the names v_app may read besides the circuit's constants; ex_eqs may read V_TB too
CIRCUIT_VOCABULARY = frozenset(
    {"V_pre", "V_post1", "V_post2", "V_node1", "V_node2", "G", "dt"})
TRANSMIT_VOCABULARY = CIRCUIT_VOCABULARY | {"V_TB"}
# the names the synapse kernel binds at every step; no circuit constant may take one
KERNEL_BOUND = TRANSMIT_VOCABULARY - {"V_node1", "V_node2"}


class SynapseMode(enum.Enum):
    IDLE = "idle"
    TRANSMIT = "transmit"
    POTENTIATE = "potentiate"
    DEPRESS = "depress"

    def __init__(self, value: str):
        # the int8 code the engine stores per synapse-step: 0..3 in this order
        self.code = len(type(self).__members__)


# the per-synapse code reads modes through module names: an Enum class
# attribute lookup costs ~0.1 us
IDLE, TRANSMIT, POTENTIATE, DEPRESS = SynapseMode
PROGRAMMING = (POTENTIATE, DEPRESS)


class SpikePresence(enum.Enum):
    NONE = "none"
    PRE_ONLY = "pre_only"
    POST_ONLY = "post_only"
    BOTH = "both"
    # policies are tested per synapse-step; members are singletons, so the
    # identity hash (in C, not Enum's by-name one in Python) is enough
    __hash__ = object.__hash__


# indexed by the presence code 2 * pre_active + post_active
PRESENCE_BY_CODE = (SpikePresence.NONE, SpikePresence.POST_ONLY,
                    SpikePresence.PRE_ONLY, SpikePresence.BOTH)


def _check_range(g_min, g_max):
    for key, g in (("g_min", g_min), ("g_max", g_max)):
        if not math.isfinite(g):
            raise SpecError(key, f"{key} must be finite, got {g}")
    if g_min >= g_max:
        raise SpecError("g_max", f"need g_min < g_max, got {g_min}, {g_max}")


def _check_order(levels, ascending, key, label=None):
    if not all(b > a if ascending else b < a for a, b in zip(levels, levels[1:])):
        order = "ascending" if ascending else "descending"
        raise SpecError(key, f"{label or key} must be strictly {order}")


def _check_bounds(levels, g_min, g_max, key, label=None):
    for g in levels:
        if not g_min <= g <= g_max:
            raise SpecError(key, f"{label or key} value {g} outside [{g_min}, {g_max}]")


@dataclass(frozen=True)
class PulseFamilyTable:
    """Conductance-vs-pulse-number curves, one row per pulse amplitude (or width)."""

    amplitudes: tuple[float, ...]
    response: tuple[tuple[float, ...], ...]
    ascending: bool  # True for potentiation rows, False for depression rows

    def __post_init__(self):
        if len(self.amplitudes) != len(self.response):
            raise SpecError("response",
                            f"{len(self.amplitudes)} amplitudes but {len(self.response)} rows")
        if not self.amplitudes:
            raise SpecError("response", "family table must have at least one row")
        _check_order(self.amplitudes, True, "amplitudes", "row amplitudes")
        for k, row in enumerate(self.response):
            if not row:
                raise SpecError("response", f"row {k} is empty")
            _check_order(row, self.ascending, "response", f"row {k}")


@dataclass(frozen=True)
class PulseFamilyDevice:
    """Device whose programming depends on pulse amplitude: LTP and LTD families.

    A device programmed by identical pulses is the one-row case (`identical`).
    """

    ltp: PulseFamilyTable
    ltd: PulseFamilyTable
    g_min: float
    g_max: float
    family_axis: str = "amplitude"  # or "width"; informational row-selection axis

    def __post_init__(self):
        _check_range(self.g_min, self.g_max)
        if not self.ltp.ascending:
            raise SpecError("ltp", "ltp table rows must be ascending")
        if self.ltd.ascending:
            raise SpecError("ltd", "ltd table rows must be descending")
        if self.family_axis not in ("amplitude", "width"):
            raise SpecError("family_axis",
                            f"family_axis must be amplitude or width, got {self.family_axis!r}")
        for key, table in (("ltp", self.ltp), ("ltd", self.ltd)):
            for row in table.response:
                _check_bounds(row, self.g_min, self.g_max, key, "family row")

    @classmethod
    def identical(cls, levels_ltp, levels_ltd, g_min: float,
                  g_max: float) -> PulseFamilyDevice:
        """Device programmed by identical pulses: one conductance ladder per
        direction, held as a one-row table that every pulse amplitude selects."""
        ltp, ltd = tuple(levels_ltp), tuple(levels_ltd)
        _check_range(g_min, g_max)
        if not ltp or not ltd:
            raise SpecError("levels_ltd" if ltp else "levels_ltp",
                            "level arrays must be non-empty")
        _check_order(ltp, True, "levels_ltp")
        _check_order(ltd, False, "levels_ltd")
        _check_bounds(ltp, g_min, g_max, "levels_ltp")
        _check_bounds(ltd, g_min, g_max, "levels_ltd")
        return cls(PulseFamilyTable((0.0,), (ltp,), True),
                   PulseFamilyTable((0.0,), (ltd,), False), g_min, g_max)


@dataclass(frozen=True)
class CircuitModel:
    """Synaptic-circuit description around one device.

    v_app develops the device voltage from the line voltages; ex_eqs gives
    the transmit current (ohmic G*V_TB when omitted). Which presence states
    may transmit or trigger plasticity is a per-circuit policy.
    """

    v_app: expr.Expression
    v_th_pos: float
    v_th_neg: float
    transmit_policy: frozenset[SpikePresence] = frozenset({SpikePresence.PRE_ONLY})
    plasticity_policy: frozenset[SpikePresence] = frozenset({SpikePresence.BOTH})
    ex_eqs: expr.Expression | None = None
    conduct_during_plasticity: bool = True
    rest_v_pre: float = 0.0
    rest_v_post1: float = 0.0
    rest_v_post2: float = 0.0
    constants: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        for name, value in self.constants:
            if name in KERNEL_BOUND:
                raise SpecError(name, "the synapse kernel binds this name at every step, "
                                "so it cannot be a constant")
            if not math.isfinite(value):
                raise SpecError(name, f"constant {name} must be finite, got {value}")
        names = {name for name, _ in self.constants}
        expr.check_names("v_app", self.v_app, CIRCUIT_VOCABULARY | names)
        expr.check_names("ex_eqs", self.ex_eqs, TRANSMIT_VOCABULARY | names)
        for key in ("v_th_pos", "v_th_neg"):
            if not getattr(self, key) > 0:
                raise SpecError(key, "thresholds must be positive")
        for key in ("rest_V_pre", "rest_V_post1", "rest_V_post2"):
            if not math.isfinite(getattr(self, key.lower())):
                raise SpecError(key, f"{key} must be finite, got {getattr(self, key.lower())}")

    def base_env(self, dt: float) -> dict[str, float]:
        """Static bindings: node voltages (one value for both unless the user
        sets them apart), user constants and the timestep."""
        env = {"V_node1": 0.0, "V_node2": 0.0}
        consts = dict(self.constants)
        if "V_node1" in consts and "V_node2" not in consts:
            consts["V_node2"] = consts["V_node1"]
        elif "V_node2" in consts and "V_node1" not in consts:
            consts["V_node1"] = consts["V_node2"]
        env.update(consts)
        env["dt"] = dt
        return env


def mode_from_voltage(circuit: CircuitModel, presence: SpikePresence,
                      v_tb: float) -> SynapseMode:
    """The synapse's mode this timestep, given the device voltage V_TB.

    Plasticity wins over transmission when the presence state may program
    the device and V_TB crosses a threshold; v_tb is only compared for such
    presence states.
    """
    if presence in circuit.plasticity_policy:
        if v_tb >= circuit.v_th_pos:
            return POTENTIATE
        if v_tb <= -circuit.v_th_neg:
            return DEPRESS
    if presence in circuit.transmit_policy:
        return TRANSMIT
    return IDLE


def transmit_current(circuit: CircuitModel, g: float, env: dict[str, float],
                     mode: SynapseMode = TRANSMIT) -> float:
    """Current through the device, in amperes.

    Idle passes nothing; potentiation/depression pulses conduct unless the
    circuit disables conduction while programming. A conducting device
    carries g * V_TB, or the circuit's ex_eqs. env must bind V_TB (the
    engine evaluates v_app for it) and whatever ex_eqs reads; it is not
    changed.
    """
    if mode is not TRANSMIT and (mode is IDLE or not circuit.conduct_during_plasticity):
        return 0.0
    if circuit.ex_eqs is None:
        return g * env["V_TB"]
    if env.get("G") is not g:
        env = {**env, "G": g}
    return expr.evaluate(circuit.ex_eqs, env)


def _nearest(values, x) -> int:
    """Index of the value closest to x; ties go to the lower index.

    values is strictly monotone, so the rounded |v - x| never rises before the first value
    at or past x, index p, nor falls after it (a descending row is bisected as its reverse):
    the nearest is p or p - 1, or, when p - 2 ties with p - 1, the first of that run."""
    if values[0] <= values[-1]:
        p = bisect_left(values, x)
    else:
        p = len(values) - bisect_right(values[::-1], x)
    if p == 0:
        return 0
    d = abs(values[p - 1] - x)
    if p < len(values) and abs(values[p] - x) < d:
        return p
    if p < 2 or abs(values[p - 2] - x) > d:
        return p - 1
    return bisect_left(values, -d, 0, p, key=lambda v: -abs(v - x))


def _row(device: PulseFamilyDevice, direction: SynapseMode,
         pulse_amplitude: float) -> tuple[float, ...]:
    """The curve a pulse walks: the direction's table, the row nearest |amplitude|."""
    if direction not in PROGRAMMING:
        raise ValueError(f"direction must be POTENTIATE or DEPRESS, got {direction}")
    table = device.ltp if direction is POTENTIATE else device.ltd
    rows = table.response  # every amplitude selects the one row of an identical-pulse device
    return rows[0] if len(rows) == 1 else rows[_nearest(table.amplitudes, abs(pulse_amplitude))]


def step_device(device: PulseFamilyDevice, direction: SynapseMode,
                pulse_amplitude: float, g: float) -> float:
    """One programming pulse: on the row the pulse selects, snap to the
    conductance nearest g, advance one column, clamp at the row end."""
    row = _row(device, direction, pulse_amplitude)
    new = row[min(_nearest(row, g) + 1, len(row) - 1)]
    # a row that cannot reach g must not drag it backwards
    return max(new, g) if direction is POTENTIATE else min(new, g)


def saturates(device: PulseFamilyDevice, direction: SynapseMode, g: float,
              pulse_amplitude: float = 0.0) -> bool:
    """True when a pulse in this direction can no longer move the conductance."""
    row = _row(device, direction, pulse_amplitude)
    return _nearest(row, g) == len(row) - 1
