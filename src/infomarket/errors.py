"""Exception types shared across the package.

Every error raised by library code derives from :class:`InfoMarketError` and
carries the name of the subsystem that raised it, so the CLI can surface
failures with context.
"""


class InfoMarketError(Exception):
    """Base class for all package errors."""

    module = "infomarket"


class InfeasibleEquilibrium(InfoMarketError):
    """Market parameters force a non-positive price or quantity."""

    module = "market"


class NoRoot(InfoMarketError):
    """Supply minus demand has no sign change on the given bracket."""

    module = "market"


class NonMonotone(InfoMarketError):
    """Supply or demand fails its monotonicity probe on the bracket."""

    module = "market"


class NoCrossover(InfoMarketError):
    """Deception payoff never exceeds the truth payoff."""

    module = "payoffs"


class MalformedProfile(InfoMarketError):
    """Preference rankings are incomplete, non-strict, or reference unknown ids."""

    module = "matching"


class UnknownId(InfoMarketError):
    """An agent id is not part of the preference profile."""

    module = "matching"


class EmptyInput(InfoMarketError):
    """An operation requiring a nonempty collection received an empty one."""

    module = "voting"


class InvalidSeats(InfoMarketError):
    """Seat count below one or not an integer."""

    module = "voting"


class UnknownCandidate(InfoMarketError):
    """A ballot ranks a candidate that is not standing."""

    module = "voting"


class NonConvergence(InfoMarketError):
    """Keep-factor iteration failed to reach tolerance within the cap."""

    module = "voting"


class NoMarket(InfoMarketError):
    """Both market sides are infeasible; no health score exists."""

    module = "analysis"


class TooFewPoints(InfoMarketError):
    """A curve operation needs at least two points."""

    module = "analysis"


class Unreachable(InfoMarketError):
    """No path exists between the requested nodes."""

    module = "analysis"


class ParseError(InfoMarketError):
    """A scenario, ballot, or graph file is malformed."""

    module = "scenario"
