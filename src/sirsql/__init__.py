"""sirsql: an SQL dialect with inherited attributes over an embedded kernel.

A table may declare inheritance expressions (IEs) alongside its stored
columns; the layer compiles each such table into a stored base plus a
chain of kernel views, the last of which carries the table's own name, and
routes queries and DML accordingly.  A schema-design toolkit decomposes a
universal scheme into such tables instead of plain stored projections.
"""

from .catalog import Catalog, CatalogEntry, SirScheme
from .compiler import compile_sir
from .errors import SirSqlError
from .kernel import KernelConnection, RowSet
from .layer import SirLayer
from .parser import parse
from .render import render, render_source

__all__ = [
    "Catalog", "CatalogEntry", "SirScheme", "compile_sir",
    "SirSqlError", "KernelConnection", "RowSet", "SirLayer", "parse",
    "render", "render_source",
]
