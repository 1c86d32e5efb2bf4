"""Built-in curve catalog holding the worked examples as data.

Entries validate at load time: nonsingular, ordinary, and the stated
endomorphism-order conductor c = [O_K : O] divides the computed Frobenius
conductor f_pi.  The catalog exports to a plain key=value text format
with [entry-name] section headers.
"""

from .classify import OrderData
from .curve import Curve, count_points, reduce_rational_curve
from .field import PrimeField


class CurveCatalogEntry:
    """A named curve with its known endomorphism and order data."""

    def __init__(self, name, p, a4=None, a6=None, rational=None,
                 endo_labels=(), conductor=1, default_ell=None, notes=""):
        self.name = name
        self.p = p
        self.rational = rational  # (num_a4, den_a4, num_a6, den_a6) or None
        if rational is not None:
            na4, da4, na6, da6 = rational
            self.curve = reduce_rational_curve(na4, da4, na6, da6, p)
        else:
            self.curve = Curve(PrimeField(p), a4, a6)
        self.frob = count_points(self.curve)
        self.order = OrderData.from_frobenius(self.frob.trace_t, p, conductor)
        self.endo_labels = tuple(endo_labels)
        self.default_ell = default_ell
        self.notes = notes

    def with_prime(self, p: int) -> "CurveCatalogEntry":
        """Re-reduce a rational-coefficient entry at a different prime."""
        if self.rational is None:
            raise ValueError(f"{self.name} has no rational model to re-reduce")
        return CurveCatalogEntry(
            f"{self.name}@{p}", p, rational=self.rational,
            endo_labels=self.endo_labels, conductor=self.order.c,
            default_ell=self.default_ell, notes=self.notes,
        )


def _build_entries():
    entries = [
        CurveCatalogEntry(
            "ex2-f701", 701, a4=-35, a6=98,
            endo_labels=("alpha_701",), conductor=1, default_ell=5,
            notes=(
                "End(E) = Z[(1+sqrt(-7))/2], maximal. Counted t = 2 gives "
                "f_pi = 20 (the source text states conductor 10 for Z[pi]; "
                "the point count is authoritative here, discrepancy noted)."
            ),
        ),
        CurveCatalogEntry(
            "ex4-rational", 13,
            rational=(-3375, 121, 6750, 121),
            endo_labels=(), conductor=2, default_ell=2,
            notes=(
                "y^2 = x^3 - 3375/121 x + 6750/121, conductor 108900; good "
                "reduction at 13. CM by the order of conductor 2 in Q(sqrt(-3))."
            ),
        ),
    ]
    for p in (5, 13, 17, 29):
        entries.append(
            CurveCatalogEntry(
                f"ex1-f{p}", p, a4=1, a6=0,
                endo_labels=("sqrt_minus_one",), conductor=1, default_ell=2,
                notes="y^2 = x^3 + x, CM by Z[i]; full rational 2-torsion.",
            )
        )
    # alias used by the classify examples
    entries.append(
        CurveCatalogEntry(
            "ex4-13", 13, rational=(-3375, 121, 6750, 121),
            endo_labels=(), conductor=2, default_ell=2,
            notes="Reduction of ex4-rational at p = 13.",
        )
    )
    return {e.name: e for e in entries}


_ENTRIES = None


def builtin_catalog() -> dict:
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _build_entries()
    return _ENTRIES


def get_entry(name: str) -> CurveCatalogEntry:
    cat = builtin_catalog()
    if name not in cat:
        raise ValueError(f"unknown catalog entry {name!r}; have {sorted(cat)}")
    return cat[name]


def export_catalog() -> str:
    """Render the built-in catalog in the plain key=value file format."""
    lines = ["# distmap curve catalog"]
    for name in sorted(builtin_catalog()):
        e = builtin_catalog()[name]
        lines.append("")
        lines.append(f"[{name}]")
        lines.append(f"p={e.p}")
        if e.rational is not None:
            na4, da4, na6, da6 = e.rational
            lines.append(f"a4={na4}/{da4}")
            lines.append(f"a6={na6}/{da6}")
        else:
            lines.append(f"a4={e.curve.a4}")
            lines.append(f"a6={e.curve.a6}")
        lines.append(f"order={e.frob.order_n}")
        lines.append(f"trace={e.frob.trace_t}")
        lines.append(f"d_K={e.order.d_K}")
        lines.append(f"f_pi={e.order.f_pi}")
        lines.append(f"conductor={e.order.c}")
        if e.endo_labels:
            lines.append(f"endos={','.join(e.endo_labels)}")
        if e.default_ell:
            lines.append(f"ell={e.default_ell}")
        if e.notes:
            lines.append(f"notes={e.notes}")
    lines.append("")
    return "\n".join(lines)

