"""ASCII rendering of figure/table data."""

from repro.analysis.report import ascii_table, ascii_series, format_cdf_rows

__all__ = [
    "ascii_table",
    "ascii_series",
    "format_cdf_rows",
]
