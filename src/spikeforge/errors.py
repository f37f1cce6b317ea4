"""The one error a spec or model constructor raises for a value it rejects."""


class SpecError(ValueError):
    """A rejected value and the parameter that holds it: key names that
    parameter, or is None when the fault spans several (two layers of a
    network, say)."""

    def __init__(self, key: str | None, message: str):
        super().__init__(message)
        self.key = key
