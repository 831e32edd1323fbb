"""Exception types shared across the package."""


class SpecError(ValueError):
    """Invalid problem specification (sizes, weights, delays)."""


class HorizonViolationError(ValueError):
    """A disturbance entry lies outside the allowed planning horizon.

    `bound` is the bound it violates: the current time for an entry in
    the past, the horizon bound for one too far ahead.
    """

    def __init__(self, node: int, time: int, bound: int):
        self.node = node
        self.time = time
        self.bound = bound
        if time < bound:
            text = f"is before the current time {bound}"
        else:
            text = f"violates horizon bound t <= {bound}"
        super().__init__(f"disturbance at node {node}, time {time} {text}")


class LedgerRangeError(KeyError):
    """Requested a shifted-disturbance entry outside the stored window."""


class InvalidHorizonError(ValueError):
    """Oracle horizon too short for the instance."""


class RoundAbortError(RuntimeError):
    """A distributed control round could not complete; nothing was actuated."""
