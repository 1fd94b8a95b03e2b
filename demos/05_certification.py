"""Randomized certification of operator monotonicity and concavity.

Operator monotone functions on the positive cone are exactly the operator
concave ones, and both properties are equivalent to PSD Frechet derivatives
and to matrix convexity of the hypograph.  The testers agree on verdicts:
the square function is the classic counterexample to everything.
"""

from opmono.cert import (
    concave_test,
    derivative_monotone_test,
    doubling_concavity_check,
    hypograph_convexity_test,
    monotone_test,
    nc_axiom_check,
)
from opmono.freefun import harmonic_mean, lift_scalar

for ident in ("sqrt", "xsq"):
    fn = lift_scalar(ident)
    mono = monotone_test(fn, n=3, trials=500, seed=0)
    conc = concave_test(fn, n=3, trials=500, seed=1)
    deriv = derivative_monotone_test(fn, n=3, trials=500, seed=2)
    hypo = hypograph_convexity_test(fn, n=3, m=2, trials=500, seed=3)
    print(
        f"{ident:5s}: monotone {mono.verdict:15s} concave {conc.verdict:15s} "
        f"derivative {deriv.verdict:15s} hypograph {hypo.verdict}"
    )

# A found counterexample replays from the stored inputs.
rep = monotone_test(lift_scalar("xsq"), n=2, trials=1000, seed=4)
a = rep.counterexample["A"][0]
b = rep.counterexample["B"][0]
import numpy as np

print(
    "replayed violation eigenvalue:",
    f"{np.linalg.eigvalsh(b @ b - a @ a)[0]:.4f}",
)

# The doubling construction that turns monotonicity into concavity.
doubling = doubling_concavity_check(lift_scalar("sqrt"), n=3, trials=20, seed=5)
print(
    "doubling for sqrt:", doubling.verdict,
    f"(unitarity defect {doubling.details['unitarity_defect']:.1e},",
    f"block defect {doubling.details['block_defect']:.1e})",
)

# Free-function axioms: unitary equivariance and direct-sum respect.
axioms = nc_axiom_check(harmonic_mean((0.5, 0.5)), n=3, trials=50, seed=6)
print(
    "harmonic mean NC axioms:", axioms.verdict,
    f"(unitary defect {axioms.details['unitary_defect']:.1e},",
    f"direct-sum defect {axioms.details['direct_sum_defect']:.1e})",
)
