"""Reading and writing ubd's text series records, written apart from ubd.

A record is

    series 1
    width N
    lead L
    truncation T
    field rational            (or: field c0,c1,...,1)
    p/q                       (T + 1 coefficient lines)

with number-field coefficients as comma-separated p/q coordinates.
"""

from fractions import Fraction


class Record:
    def __init__(self, width, lead, truncation, field, coeffs):
        self.width = width
        self.lead = lead
        self.truncation = truncation
        self.field = field      # list of ints, or None for rational
        self.coeffs = coeffs    # Fractions, or tuples of Fractions

    def integers(self):
        """The coefficients as ints; raises ValueError if one is not."""
        if self.field is not None:
            raise ValueError("not a rational record")
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("a coefficient is not an integer")
        return [c.numerator for c in self.coeffs]


def parse_records(lines):
    """All series records in a list of text lines, in order."""
    out = []
    i = 0
    while i < len(lines):
        if lines[i].strip() != "series 1":
            i += 1
            continue
        head = {}
        for key in ("width", "lead", "truncation", "field"):
            i += 1
            name, value = lines[i].split(maxsplit=1)
            if name != key:
                raise ValueError(f"expected {key!r} in a series record, got {name!r}")
            head[key] = value
        trunc = int(head["truncation"])
        field = None if head["field"] == "rational" else \
            [int(c) for c in head["field"].split(",")]
        body = lines[i + 1:i + 2 + trunc]
        if len(body) != trunc + 1:
            raise ValueError("series record is shorter than its truncation")
        if field is None:
            coeffs = [Fraction(c) for c in body]
        else:
            coeffs = [tuple(Fraction(x) for x in c.split(",")) for c in body]
        out.append(Record(int(head["width"]), int(head["lead"]), trunc, field,
                          coeffs))
        i += 2 + trunc
    return out


def format_record(width, lead, coeffs):
    """A rational record for integer or Fraction coefficients."""
    lines = ["series 1", f"width {width}", f"lead {lead}",
             f"truncation {len(coeffs) - 1}", "field rational"]
    for c in coeffs:
        c = Fraction(c)
        lines.append(f"{c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def parse_catalog(text):
    """Expansion records of `ubd catalog` output, by entry label."""
    out = {}
    blocks = text.strip().split("\n\n")
    for block in blocks:
        lines = block.splitlines()
        if not lines or not lines[0].startswith("entry "):
            raise ValueError("catalog block does not start with an entry line")
        label = lines[0].split()[1]
        (rec,) = parse_records(lines)
        out[label] = rec
    return out


def parse_fields(line):
    """key=value pairs of one records-format verdict or summary line."""
    return dict(part.split("=", 1) for part in line.split() if "=" in part)
