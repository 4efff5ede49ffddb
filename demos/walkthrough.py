"""Tour of the three-way verdict on one record.

Takes the genus A5 (spinor regular form 4x^2+9y^2+9z^2+2yz+4xz+4xy) and
walks every integer up to 30 through the classifier, then prints the
exceptional squareclasses behind the EXCEPTIONAL verdicts.
"""

from spinor_ternary import (
    classify,
    enumerate_represented,
    load_default_catalog,
)
from spinor_ternary.spinor_theory import squareclass_mask

import numpy as np


def main() -> None:
    catalog = load_default_catalog()
    rec = catalog.lookup("A5")
    form = rec.sgi_forms[0]
    print(f"record {rec.rid}: F = {form}, discriminant {rec.delta}")
    print(f"ramified primes: {rec.ramified_primes()}")
    print()

    rs = enumerate_represented(form, 100)
    for n in range(1, 31):
        out = classify(rec, n, rs)
        if out.verdict == "REPRESENTED":
            w = out.witness
            detail = f"F({w.x},{w.y},{w.z}) = {n}"
        elif out.verdict == "EXCEPTIONAL":
            s, t = out.matched
            detail = f"lies in {s}*M_{t}^2, represented by the other spinor genus"
        elif out.verdict == "LOCALLY_EXCLUDED":
            detail = f"no solution over Z_{out.failing_prime}"
        else:
            detail = out.detail
        print(f"  n={n:>3}  {out.verdict:<16} {detail}")

    print()
    spec = " ".join(f"{s}*M_{t}^2" for s, t in rec.exceptional_spec)
    print(f"exceptional squareclasses of {rec.rid}: {spec}")
    members = np.flatnonzero(squareclass_mask(rec.exceptional_spec, 2000))
    print(f"members up to 2000: {', '.join(str(int(n)) for n in members)}")


if __name__ == "__main__":
    main()
