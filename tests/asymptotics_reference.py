"""Leading small-cost terms of the reflecting limit under log utility.

With proportional cost gamma (a bid-ask spread of 2 gamma), the no-trade
band [A, B] has half-width w = (3/2 hhat^2 (1 - hhat)^2 gamma)^(1/3) about the
Merton fraction hhat, and the growth it loses against f(hhat) is
(sigma^2 / 2) w^2.  This is the log-utility case of Gerhold, Guasoni,
Muhle-Karbe and Schachermayer (2014, "Transaction costs, trading volume,
and the liquidity premium"); Janecek and Shreve (2004) give the same
gamma^(1/3) law.  The distance rho = min(hhat, 1 - hhat)/w from hhat to the
nearer edge of [0, 1], in these half-widths, locates the edge regime where
the band runs into 0 or 1.
"""


def half_width(hhat, gamma):
    """Leading term w of the band's half-width (B - A)/2."""
    return (1.5 * hhat * hhat * (1.0 - hhat) ** 2 * gamma) ** (1.0 / 3.0)


def growth_loss(sigma, hhat, gamma):
    """Leading term (sigma^2/2) w^2 of f(hhat) - l0."""
    return 0.5 * sigma * sigma * half_width(hhat, gamma) ** 2


def edge_distance(hhat, gamma):
    """rho = min(hhat, 1 - hhat)/w, the distance to the nearer edge of [0, 1]
    in leading-order half-widths."""
    return min(hhat, 1.0 - hhat) / half_width(hhat, gamma)
