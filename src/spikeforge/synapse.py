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


def _check_range(g_min, g_max):
    if g_min >= g_max:
        raise ValueError(f"need g_min < g_max, got {g_min}, {g_max}")


def _check_order(levels, ascending, label):
    if ascending:
        bad = any(b <= a for a, b in zip(levels, levels[1:]))
    else:
        bad = any(b >= a for a, b in zip(levels, levels[1:]))
    if bad:
        order = "ascending" if ascending else "descending"
        raise ValueError(f"{label} must be strictly {order}")


def _check_bounds(levels, g_min, g_max, label):
    for g in levels:
        if not g_min <= g <= g_max:
            raise ValueError(f"{label} value {g} outside [{g_min}, {g_max}]")


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
        _check_order(self.amplitudes, True, "row amplitudes")
        for k, row in enumerate(self.response):
            if not row:
                raise ValueError(f"row {k} is empty")
            _check_order(row, self.ascending, f"row {k}")


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
            raise ValueError("ltp table rows must be ascending")
        if self.ltd.ascending:
            raise ValueError("ltd table rows must be descending")
        if self.family_axis not in ("amplitude", "width"):
            raise ValueError(f"family_axis must be amplitude or width, got {self.family_axis!r}")
        for table in (self.ltp, self.ltd):
            for row in table.response:
                _check_bounds(row, self.g_min, self.g_max, "family row")

    @classmethod
    def identical(cls, levels_ltp, levels_ltd, g_min: float,
                  g_max: float) -> PulseFamilyDevice:
        """Device programmed by identical pulses: one conductance ladder per
        direction, held as a one-row table that every pulse amplitude selects."""
        ltp, ltd = tuple(levels_ltp), tuple(levels_ltd)
        _check_range(g_min, g_max)
        if not ltp or not ltd:
            raise ValueError("level arrays must be non-empty")
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


def _row(device: PulseFamilyDevice, direction: SynapseMode,
         pulse_amplitude: float) -> tuple[float, ...]:
    """The curve a pulse walks: the direction's table, the row nearest |amplitude|."""
    if direction is SynapseMode.POTENTIATE:
        table = device.ltp
    elif direction is SynapseMode.DEPRESS:
        table = device.ltd
    else:
        raise ValueError(f"direction must be POTENTIATE or DEPRESS, got {direction}")
    return table.response[_nearest(table.amplitudes, abs(pulse_amplitude))]


def step_device(device: PulseFamilyDevice, direction: SynapseMode,
                pulse_amplitude: float, g: float) -> float:
    """One programming pulse: on the row the pulse selects, snap to the
    conductance nearest g, advance one column, clamp at the row end."""
    row = _row(device, direction, pulse_amplitude)
    new = row[min(_nearest(row, g) + 1, len(row) - 1)]
    # a row that cannot reach g must not drag it backwards
    return max(new, g) if direction is SynapseMode.POTENTIATE else min(new, g)


def saturates(device: PulseFamilyDevice, direction: SynapseMode, g: float,
              pulse_amplitude: float = 0.0) -> bool:
    """True when a pulse in this direction can no longer move the conductance."""
    row = _row(device, direction, pulse_amplitude)
    return _nearest(row, g) == len(row) - 1


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
