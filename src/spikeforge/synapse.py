"""Nanodevice synapse and synaptic-circuit models.

A synapse is in exactly one of four modes each timestep (idle, transmit,
potentiate, depress), decided by `mode_from_voltage` from which spikes are
present and from the voltage the user's circuit equation develops across
the device. Conductance updates replay measured device tables: either a
single level ladder walked by identical pulses, or a family of curves
selected by pulse amplitude. The engine's synapse kernel applies these
per-synapse rules to whole matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from spikeforge import expr


class SynapseMode(enum.Enum):
    IDLE = "idle"
    TRANSMIT = "transmit"
    POTENTIATE = "potentiate"
    DEPRESS = "depress"


class SpikePresence(enum.Enum):
    NONE = "none"
    PRE_ONLY = "pre_only"
    POST_ONLY = "post_only"
    BOTH = "both"


# indexed by the presence code 2 * pre_active + post_active
PRESENCE_BY_CODE = (SpikePresence.NONE, SpikePresence.POST_ONLY,
                    SpikePresence.PRE_ONLY, SpikePresence.BOTH)


def classify_presence(pre_active: bool, post_active: bool) -> SpikePresence:
    return PRESENCE_BY_CODE[2 * pre_active + post_active]


def _check_bounds(levels, g_min, g_max, label):
    for g in levels:
        if not g_min <= g <= g_max:
            raise ValueError(f"{label} value {g} outside [{g_min}, {g_max}]")


@dataclass(frozen=True)
class IdenticalPulseDevice:
    """Device programmed by identical pulses: one conductance ladder per direction."""

    levels_ltp: tuple[float, ...]
    levels_ltd: tuple[float, ...]
    g_min: float
    g_max: float

    def __post_init__(self):
        if self.g_min >= self.g_max:
            raise ValueError(f"need g_min < g_max, got {self.g_min}, {self.g_max}")
        if len(self.levels_ltp) < 1 or len(self.levels_ltd) < 1:
            raise ValueError("level arrays must be non-empty")
        if any(b <= a for a, b in zip(self.levels_ltp, self.levels_ltp[1:])):
            raise ValueError("levels_ltp must be strictly ascending")
        if any(b >= a for a, b in zip(self.levels_ltd, self.levels_ltd[1:])):
            raise ValueError("levels_ltd must be strictly descending")
        _check_bounds(self.levels_ltp, self.g_min, self.g_max, "levels_ltp")
        _check_bounds(self.levels_ltd, self.g_min, self.g_max, "levels_ltd")


@dataclass(frozen=True)
class PulseFamilyTable:
    """Conductance-vs-pulse-number curves, one row per pulse amplitude (or width)."""

    amplitudes: tuple[float, ...]
    response: tuple[tuple[float, ...], ...]
    ascending: bool  # True for potentiation rows, False for depression rows

    def __post_init__(self):
        if len(self.amplitudes) != len(self.response):
            raise ValueError(
                f"{len(self.amplitudes)} amplitudes but {len(self.response)} rows")
        if not self.amplitudes:
            raise ValueError("family table must have at least one row")
        if any(b <= a for a, b in zip(self.amplitudes, self.amplitudes[1:])):
            raise ValueError("row amplitudes must be strictly ascending")
        for k, row in enumerate(self.response):
            if not row:
                raise ValueError(f"row {k} is empty")
            if self.ascending:
                bad = any(b <= a for a, b in zip(row, row[1:]))
            else:
                bad = any(b >= a for a, b in zip(row, row[1:]))
            if bad:
                order = "ascending" if self.ascending else "descending"
                raise ValueError(f"row {k} must be strictly {order}")


@dataclass(frozen=True)
class PulseFamilyDevice:
    """Device whose programming depends on pulse amplitude: LTP and LTD families."""

    ltp: PulseFamilyTable
    ltd: PulseFamilyTable
    g_min: float
    g_max: float
    family_axis: str = "amplitude"  # or "width"; informational row-selection axis

    def __post_init__(self):
        if self.g_min >= self.g_max:
            raise ValueError(f"need g_min < g_max, got {self.g_min}, {self.g_max}")
        if not self.ltp.ascending:
            raise ValueError("ltp table rows must be ascending")
        if self.ltd.ascending:
            raise ValueError("ltd table rows must be descending")
        if self.family_axis not in ("amplitude", "width"):
            raise ValueError(f"family_axis must be amplitude or width, got {self.family_axis!r}")
        for table in (self.ltp, self.ltd):
            for row in table.response:
                _check_bounds(row, self.g_min, self.g_max, "family row")


DeviceModel = IdenticalPulseDevice | PulseFamilyDevice


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
    transmit_policy: frozenset[SpikePresence]
    plasticity_policy: frozenset[SpikePresence]
    ex_eqs: expr.Expression | None = None
    conduct_during_plasticity: bool = True
    rest_v_pre: float = 0.0
    rest_v_post1: float = 0.0
    rest_v_post2: float = 0.0
    constants: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.v_th_pos <= 0 or self.v_th_neg <= 0:
            raise ValueError("thresholds must be positive")

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
            return SynapseMode.POTENTIATE
        if v_tb <= -circuit.v_th_neg:
            return SynapseMode.DEPRESS
    if presence in circuit.transmit_policy:
        return SynapseMode.TRANSMIT
    return SynapseMode.IDLE


def transmit_current(circuit: CircuitModel, g: float, env: dict[str, float],
                     mode: SynapseMode = SynapseMode.TRANSMIT) -> float:
    """Current through the device, in amperes.

    Idle passes nothing; potentiation/depression pulses conduct unless the
    circuit disables conduction while programming. When env binds no V_TB,
    it is evaluated here from the circuit's v_app.
    """
    if mode is SynapseMode.IDLE:
        return 0.0
    if mode in (SynapseMode.POTENTIATE, SynapseMode.DEPRESS) \
            and not circuit.conduct_during_plasticity:
        return 0.0
    local = dict(env)
    local["G"] = g
    if "V_TB" not in local:
        local["V_TB"] = expr.evaluate(circuit.v_app, local)
    if circuit.ex_eqs is None:
        return g * local["V_TB"]
    return expr.evaluate(circuit.ex_eqs, local)


def _nearest(values, x) -> int:
    """Index of the value closest to x; ties go to the lower index."""
    best = 0
    best_d = abs(values[0] - x)
    for i in range(1, len(values)):
        d = abs(values[i] - x)
        if d < best_d:
            best, best_d = i, d
    return best


def step_identical(device: IdenticalPulseDevice, direction: SynapseMode,
                   g: float) -> float:
    """One identical programming pulse: snap to the nearest level of the
    direction's ladder, advance one step, clamp at the end."""
    levels = _direction_levels(device, direction)
    i = _nearest(levels, g)
    return _directed(levels[min(i + 1, len(levels) - 1)], g, direction)


def _directed(new: float, g: float, direction: SynapseMode) -> float:
    # a ladder that cannot reach g must not drag it backwards
    if direction is SynapseMode.POTENTIATE:
        return max(new, g)
    return min(new, g)


def _direction_levels(device, direction):
    if direction is SynapseMode.POTENTIATE:
        return device.levels_ltp
    if direction is SynapseMode.DEPRESS:
        return device.levels_ltd
    raise ValueError(f"direction must be POTENTIATE or DEPRESS, got {direction}")


def step_family(device: PulseFamilyDevice, direction: SynapseMode,
                pulse_amplitude: float, g: float) -> float:
    """One amplitude-dependent pulse: pick the row nearest |amplitude|,
    advance one column from the conductance nearest g, clamp at the row end."""
    if direction is SynapseMode.POTENTIATE:
        table = device.ltp
    elif direction is SynapseMode.DEPRESS:
        table = device.ltd
    else:
        raise ValueError(f"direction must be POTENTIATE or DEPRESS, got {direction}")
    row = table.response[_nearest(table.amplitudes, abs(pulse_amplitude))]
    j = _nearest(row, g)
    return _directed(row[min(j + 1, len(row) - 1)], g, direction)


def step_device(device: DeviceModel, direction: SynapseMode,
                pulse_amplitude: float, g: float) -> float:
    """Dispatch on the device variant; identical-pulse ignores amplitude."""
    if isinstance(device, IdenticalPulseDevice):
        return step_identical(device, direction, g)
    return step_family(device, direction, pulse_amplitude, g)


def saturates(device: DeviceModel, direction: SynapseMode, g: float,
              pulse_amplitude: float = 0.0) -> bool:
    """True when a pulse in this direction can no longer move the conductance."""
    if isinstance(device, IdenticalPulseDevice):
        levels = _direction_levels(device, direction)
    else:
        table = device.ltp if direction is SynapseMode.POTENTIATE else device.ltd
        levels = table.response[_nearest(table.amplitudes, abs(pulse_amplitude))]
    return _nearest(levels, g) == len(levels) - 1


def load_identical_levels(path) -> tuple[float, ...]:
    """Read a one-conductance-per-line CSV ladder."""
    levels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                levels.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a conductance: {line!r}") from None
    return tuple(levels)


def load_family_table(path, ascending: bool) -> PulseFamilyTable:
    """Read a family CSV: header line of amplitudes, then one row per amplitude."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(tuple(float(x) for x in line.split(",")))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad row: {line!r}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header of amplitudes plus at least one row")
    return PulseFamilyTable(rows[0], tuple(rows[1:]), ascending)
