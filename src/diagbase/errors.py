"""Exception hierarchy shared across the package."""


class DiagbaseError(Exception):
    """Base class for all package errors."""


class ValidationError(DiagbaseError):
    """Catalog or construction data failed a verified invariant."""

    def __init__(self, message, *, spec=None, field=None, line=None):
        parts = []
        if spec:
            parts.append(f"[{spec}]")
        if field:
            parts.append(f"field {field!r}")
        if line is not None:
            parts.append(f"line {line}")
        prefix = " ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.spec = spec
        self.field = field
        self.line = line


class BudgetExceededError(DiagbaseError):
    """An enumeration or search exceeded its configured budget."""


class PreconditionError(DiagbaseError):
    """An operation was called outside its documented domain."""


class MembershipError(PreconditionError):
    """An element was expected to belong to a group but does not."""


class InvalidTopError(PreconditionError):
    """The requested top group is not primitive (or trivial at k=2)."""


class UnsupportedEnumerationError(PreconditionError):
    """A symbolic Alt/Sym top was asked for its table (``TopGroup.table``)."""
