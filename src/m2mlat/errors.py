"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class M2MLatError(Exception):
    """Base class for all toolkit errors."""


class LineError(M2MLatError):
    """A fault tied to one line of a log; ``line_no`` counts from 1."""

    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}" if reason else f"line {line_no}")


class UnparseableLine(LineError):
    """A log line does not match the declared format."""


class NonMonotonicSeq(LineError):
    """A sequence number is not strictly increasing within one node's log."""


class NonMonotonicTime(LineError):
    """A wall-clock timestamp decreases within one node's log."""


class EmptyLog(M2MLatError):
    """An operation received a log with no usable records."""


class LengthMismatch(M2MLatError):
    """Two logs could not be paired within the unmatched-fraction tolerance."""


class RoleMismatch(M2MLatError):
    """A log came from a node with the wrong role for the operation."""


class ConfigInvalid(M2MLatError):
    """A configuration value violates its declared invariant."""


class NegativeRtt(M2MLatError):
    """A probe exchange produced a negative round-trip time (clock misbehavior)."""


class MalformedPacket(M2MLatError):
    """A probe datagram failed magic, version, or length checks."""


class ZeroRate(M2MLatError):
    """Calibration error is undefined for a non-positive steering rate."""


class NegativeComponent(M2MLatError):
    """Error-budget components must be non-negative."""


class Unfittable(M2MLatError):
    """No distribution of the requested kind matches the target quantiles."""


class UnknownPreset(M2MLatError):
    """The requested scenario or synchronization preset does not exist."""


class EmptySample(M2MLatError):
    """Summary statistics require at least one sample."""


class TooFewSamples(M2MLatError):
    """Box-plot reduction requires at least five samples."""


class OverlappingTrials(UserWarning):
    """A drawn trial delay exceeds the configured trial interval."""
