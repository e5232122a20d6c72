# The theorem table: how the optimizer-free K bracket compares with the
# paper's rate in n, one (p, q) per region tag and flag.
#
# Each cell is k_bracket(n, e, 3, sign_budget=0) at n = 2^10, 2^20, 2^40:
# lower / rate, upper / rate, ln(upper / lower) and the source of each end.
# The lower end is the Wiener sum over every degree (bohr.wiener_lower):
# the largest r with sum over m >= 1 of r^m chi_upper(m) <= 1/2, certified
# for all m; the 3 bounds only the degrees of the upper end's witnesses.
# The theorem says K(B_p^n, B_q^n) / rate stays between two constants, so
# a cell with both ends on the rate keeps ln(upper / lower) bounded as n
# grows; the last line per pair is that growth from 2^10 to 2^40.

import math

from bohrlab.bohr import k_bracket
from bohrlab.bounds import ExponentPair, rate, region_classify

INF = math.inf
PAIRS = [(INF, 4 / 3), (INF, 2.0), (INF, INF), (INF, 4.0), (4.0, 2.0), (2.0, 2.0),
         (1.5, 1.5), (1.5, 4.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (3.0, 1.0)]
NS = [2**10, 2**20, 2**40]


def label(x):
    return "inf" if x == INF else f"{x:g}"


for p, q in PAIRS:
    rep = region_classify(p, q)
    flags = ", ".join(rep.flags) or "-"
    print(f"(p, q) = ({label(p)}, {label(q)})  region {rep.tag} [{flags}]  "
          f"rate {rep.rate_label}")
    gaps = []
    for n in NS:
        br = k_bracket(n, ExponentPair(p, q), 3, sign_budget=0)
        r = rate(p, q, n)
        gaps.append(math.log(br.upper.value / br.lower.value))
        print(f"  n = 2^{n.bit_length() - 1:<2}  lower/rate {br.lower.value / r:9.3g}  "
              f"upper/rate {br.upper.value / r:9.3g}  ln(upper/lower) {gaps[-1]:6.2f}")
        print(f"            lower: {br.lower.source}")
        print(f"            upper: {br.upper.source}")
    print(f"  ln(upper/lower) grows by {gaps[-1] - gaps[0]:.2f} from 2^10 to 2^40\n")
