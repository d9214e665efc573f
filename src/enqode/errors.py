"""Exception types shared across the toolkit."""


class EnqodeError(ValueError):
    """Base class for all toolkit errors."""


class CapacityError(EnqodeError):
    """Requested register or state size exceeds the simulator cap."""


class CircuitError(EnqodeError):
    """Malformed circuit or qubit-count mismatch between circuit and state."""


class EncodingError(EnqodeError):
    """Data violates the domain of the requested encoding."""


class DecodeError(EnqodeError):
    """State is not representable in the encoding offered for decoding."""


class NotDeterministicError(EnqodeError):
    """A single-shot readout was requested on a superposed register."""
