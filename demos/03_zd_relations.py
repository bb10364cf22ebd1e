"""Zero-determinant strategies pin a line through the payoff plane.

ZDGTFT-2 enforces Px = 2*Py - 3 and ZDEXTORT-2 enforces Px = 2*Py - 1
against *any* memory-one opponent.  We verify both relations analytically:
each pairing induces a four-state Markov chain whose long-run distribution,
solved exactly, yields the long-run payoffs; the residual from the claimed
line is exactly zero, whether the chain has one closed class or several.
"""

from predipd import BUILTIN_STRATEGIES, builtin, zd_residual

for zd_name, slope, intercept in (("ZDGTFT-2", 2, -3), ("ZDEXTORT-2", 2, -1)):
    zd = builtin(zd_name)
    print(f"{zd_name}: claims Px = {slope}*Py + {intercept}")
    print(f"  {'opponent':<12} {'Px':>7} {'Py':>7} {'residual':>10}  method")
    for opponent in BUILTIN_STRATEGIES.values():
        check = zd_residual(zd, opponent, slope, intercept)
        print(f"  {opponent.name:<12} {check.payoff_x:>7.3f} {check.payoff_y:>7.3f} "
              f"{check.residual:>10.2e}  {check.method}")
    print()

print("Note how the extortioner always out-scores its victim (Px > Py whenever")
print("Py > 1), yet both ZD strategies finish mid-table in the tournament:")
print("enforcing a relation is not the same as scoring well in absolute terms.")
