"""Exception types raised by the simulator and analysis pipeline."""


class ChannelSimError(Exception):
    """Base class for all tcslsim errors."""


class ConfigError(ChannelSimError):
    """Configuration constraints violated: a SimConfig, a parameter
    override or a line of an override file.

    `violations` holds one message per failed check, so callers can
    report all problems at once instead of fixing them one by one; the
    exception's text is the messages joined by "; ".
    """

    def __init__(self, *violations: str):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class InvalidParamsError(ChannelSimError, ValueError):
    """An argument outside what a function accepts: a frequency or
    distance outside the model, or samples, profiles and spectra that
    are empty, powerless or too few.

    `spectrum` is the number of the spectrum that `extract_spatial_lobes`
    refused, else None.
    """

    def __init__(self, message: str, spectrum: int | None = None):
        super().__init__(message)
        self.spectrum = spectrum
