"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """A graph string or file could not be decoded."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GuardError(RuntimeError):
    """An input exceeds a size guard meant to keep exponential code honest."""


class PreconditionError(ValueError):
    """A construction was called outside its guarantee; may carry a certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class WorkerCrashError(RuntimeError):
    """A hunt worker process died; graph_id is the first graph without a record."""

    def __init__(self, graph_id: str):
        super().__init__(f"a worker process died before the record of {graph_id} arrived")
        self.graph_id = graph_id
