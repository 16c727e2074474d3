"""Exception hierarchy for the sirsql layer.

Every error raised by the package derives from SirSqlError so callers can
catch the whole family at the CLI boundary.  Parse errors carry source
positions; catalog and compiler errors carry the names involved.
"""

from __future__ import annotations


class SirSqlError(Exception):
    """Base class for all sirsql errors."""


class ParseError(SirSqlError):
    """Syntax error with source position and the tokens that were expected."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else []
        where = f" at line {line}, column {col}" if line is not None else ""
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{where}{hint}")


class UnrenderableNode(SirSqlError):
    """AST fragment contains dialect-only constructs that the kernel cannot take."""


# --- catalog ---------------------------------------------------------------

class DuplicateName(SirSqlError):
    pass


class CircularReferenceError(SirSqlError):
    """A declaration would create a reference cycle between relations."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("circular reference: " + " -> ".join(self.cycle + self.cycle[:1]))


class InvariantViolation(SirSqlError):
    pass


class UnknownRelation(SirSqlError):
    pass


class CorruptCatalog(SirSqlError):
    pass


class NameCollision(SirSqlError):
    pass


class StaleCatalog(SirSqlError):
    """Another session changed the kernel schema after this session read its
    catalog; the DDL was refused and rolled back."""


# --- compiler --------------------------------------------------------------

class MissingRecursiveJoin(SirSqlError):
    pass


class IeCycle(SirSqlError):
    pass


class TooManyJoins(SirSqlError):
    """A relation's view chain joins more tables than the kernel can."""


class UnknownExcludedColumn(SirSqlError):
    pass


class RecursiveJoinAttributeDrop(SirSqlError):
    pass


class IndexedAttributeDrop(SirSqlError):
    """An ALTER would rebuild a base without a column one of its indexes names."""


class ForeignKeyAttributeDrop(SirSqlError):
    """An ALTER would drop an attribute the relation's own foreign key names."""


class DependentAttributeDrop(SirSqlError):
    """An ALTER would remove an attribute that another relation's IE, or a
    view, reads."""


class NotNullAttributeAdd(SirSqlError):
    """An ALTER would add a ``Not Null`` attribute to a relation with rows,
    which would hold NULL in it."""


class UnknownIE(SirSqlError):
    pass


class DependentsExist(SirSqlError):
    def __init__(self, name, dependents):
        self.dependents = list(dependents)
        super().__init__(f"cannot drop {name}: dependents exist: {', '.join(self.dependents)}")


class IndexOnInheritedAttribute(SirSqlError):
    pass


class NotRewritable(SirSqlError):
    pass


class CapabilityMissing(SirSqlError):
    pass


# --- kernel adapter --------------------------------------------------------

class KernelError(SirSqlError):
    """Wraps an engine error, keeping the statement that provoked it."""

    def __init__(self, message, statement=None):
        self.statement = statement
        if statement:
            message = f"{message}\n  while executing: {statement}"
        super().__init__(message)


class UnknownObject(SirSqlError):
    pass


# --- dml router ------------------------------------------------------------

class UnknownColumn(SirSqlError):
    pass


class RejectedWrite(SirSqlError):
    """Write refused by policy; carries the reason for the report."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class IaNotComputable(SirSqlError):
    SHOWN = 10      # failures named in the message; `failures` keeps them all

    def __init__(self, failures):
        # failures: list of (ie_name, key_values)
        self.failures = list(failures)
        detail = "; ".join(f"{ie} for key {key}" for ie, key in self.failures[:self.SHOWN])
        if len(self.failures) > self.SHOWN:
            detail += f"; … and {len(self.failures) - self.SHOWN} more"
        super().__init__(f"inherited attributes not computable: {detail}")


# --- normalizer ------------------------------------------------------------

class NotApplicable(SirSqlError):
    pass


class NoProgress(SirSqlError):
    pass


class SchemaMismatch(SirSqlError):
    pass
