"""The paper's own Tables 4.1 and 4.2, the reference the regenerated
rows (``repro.core.reports.table_4_1``/``table_4_2`` over an analysis
of ``EXAMPLE_4_1``) are compared with."""

# The paper's hand-made Table 4.1 (thesis page 19), for comparison.
PAPER_TABLE_4_1 = {
    "global": {"type": "int", "size": 1, "rd": 0, "wr": 0},
    "ptr": {"type": "int*", "size": 1, "rd": 1, "wr": 1},
    "sum": {"type": "int*", "size": 3, "rd": 2, "wr": 2},
    "tLocal": {"type": "int", "size": 1, "rd": 3, "wr": 1},
    "tid": {"type": "n/a", "size": "n/a", "rd": 1, "wr": 0},
    "local": {"type": "int", "size": 1, "rd": 8, "wr": 4},
    "tmp": {"type": "int", "size": 1, "rd": 1, "wr": 1},
    "threads": {"type": "pthread t*", "size": 3, "rd": 2, "wr": 0},
    "rc": {"type": "int", "size": 1, "rd": 0, "wr": 3},
}

# The paper's Table 4.2 (thesis page 21).
PAPER_TABLE_4_2 = {
    "global": ("true", "true", "false"),
    "ptr": ("true", "true", "true"),
    "sum": ("true", "true", "true"),
    "tLocal": ("null", "false", "false"),
    "tid": ("null", "false", "false"),
    "local": ("null", "false", "false"),
    "tmp": ("null", "false", "true"),
    "threads": ("null", "false", "false"),
    "rc": ("null", "false", "false"),
}

