"""``docs/protocols.md`` §5 lists the request schema the service enforces.

The two tables under "The request schema" — ops and messages, one row
per field with its exact types — must name the same ops, messages,
fields, types and optional fields as ``OP_SCHEMA`` and
``MESSAGE_SCHEMA`` in ``repro/net/service.py``.
"""

import pathlib
import re

from repro.net.service import MESSAGE_SCHEMA, OP_SCHEMA

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "protocols.md"


def _doc_tables():
    """The two tables after the schema heading, as lists of cell rows."""
    text = DOC.read_text()
    section = text[text.index("**The request schema.**"):]
    tables, rows = [], []
    for line in section.splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            tables.append(rows[2:])  # drop the header and the rule
            rows = []
            if len(tables) == 2:
                return tables
    raise AssertionError("the request schema tables are missing")


def _doc_rows(rows):
    out = set()
    for owner, name, types, _ in rows:
        (owner,) = re.findall(r"`(\w+)`", owner)
        field = re.findall(r"`(\w+)`", name)
        out.add(
            (
                owner,
                field[0] if field else None,
                tuple(sorted(re.findall(r"`(\w+)`", types))),
                "(optional)" in name,
            )
        )
    return out


def _code_rows(fields_by_owner):
    out = set()
    for owner, fields in fields_by_owner:
        if not fields:
            out.add((owner, None, (), False))
        for name, types, _, _, _, optional in fields:
            out.add((owner, name, tuple(sorted(t.__name__ for t in types)), optional))
    return out


def test_op_table_matches_the_code():
    ops, _ = _doc_tables()
    code = _code_rows((name, op.fields) for name, op in OP_SCHEMA.items())
    assert _doc_rows(ops) == code


def test_message_table_matches_the_code():
    _, messages = _doc_tables()
    code = _code_rows((cls.__name__, fields) for cls, fields in MESSAGE_SCHEMA.items())
    assert _doc_rows(messages) == code
