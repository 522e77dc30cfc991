"""Exception types raised by the simulator and analysis pipeline."""


class ChannelSimError(Exception):
    """Base class for all tcslsim errors."""


class ConfigError(ChannelSimError):
    """A single violated configuration constraint."""


class ConfigValidationError(ChannelSimError):
    """Aggregate of every constraint violated by a SimConfig.

    `violations` holds one ConfigError per failed check so callers can
    report all problems at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid configuration: {lines}")


class InvalidParamsError(ChannelSimError, ValueError):
    """An argument outside what a function accepts: a frequency or
    distance outside the model, or samples, profiles and spectra that
    are empty, powerless or too few."""
