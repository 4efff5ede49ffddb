"""Why the B11 miss set needs its 3-adic congruence types.

The form 9x^2+16y^2+48z^2 misses exactly the integers excluded by one of
its two ramified primes plus the exceptional squareclasses M_3^2 and
4*M_3^2.  This demo takes that union from closed_form_missed_mask, which
assembles it from the per-prime exclusion predicates, then shows that
dropping the 3-adic types (2+3l and 9^k(6+9l)) leaves a union that
disagrees with the enumeration, first at n = 17.
"""

import numpy as np

from spinor_ternary import load_default_catalog, represented_mask
from spinor_ternary.local_solver import lemma72_excluded, local_represents
from spinor_ternary.spinor_theory import closed_form_missed_mask, squareclass_mask

BOUND = 2000


def main() -> None:
    catalog = load_default_catalog()
    rec = catalog.lookup("B11")
    form = rec.sgi_forms[0]
    rep = represented_mask(form, BOUND)

    full = closed_form_missed_mask("B11", BOUND)
    # the same union less the 3-adic types
    two_adic = lemma72_excluded(np.arange(BOUND + 1))
    narrow = two_adic | squareclass_mask(rec.exceptional_spec, BOUND)

    missed = ~rep
    missed[0] = False
    print(f"F = {form}, everything to {BOUND}")
    print(f"  missed by enumeration:            {int(missed.sum())}")
    print(f"  2-adic types + squareclasses:     {int(narrow.sum())}")
    print(f"  ... plus 3-adic types:            {int(full.sum())}")
    print()
    print("full union == enumeration:", bool(np.array_equal(full, missed)))

    gaps = np.flatnonzero(narrow != missed)
    print(f"narrow union leaves {gaps.size} gaps; first five: {gaps[:5].tolist()}")
    print()

    first = int(gaps[0])
    verdict = local_represents(form, 3, first)
    print(f"n = {first}: representable over Z_3? {verdict.representable}")
    print(f"  ({first} = 2 mod 3, and <1,3,9> cannot hit that residue)")
    print(f"  solver exhausted residues mod 3^{verdict.precision}")


if __name__ == "__main__":
    main()
