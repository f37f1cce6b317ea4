"""Clock-driven spiking neural network simulator for nanodevice hardware exploration."""

from spikeforge.waveform import Waveform, waveform_from_flat

__all__ = [
    "Waveform",
    "waveform_from_flat",
]

__version__ = "0.1.0"
