import math

import pytest

# order grid shared by the invariant tests
NU_GRID = (-0.49, -0.25, 0.0, 0.5, 1.0, 2.0, 10.0)


def disk_points(n_radii=10, n_angles=10, max_radius=1.0):
    """Deterministic grid of n_radii*n_angles points in the closed disk."""
    pts = []
    for i in range(1, n_radii + 1):
        r = max_radius * i / n_radii
        for j in range(n_angles):
            th = 2.0 * math.pi * j / n_angles
            pts.append(complex(r * math.cos(th), r * math.sin(th)))
    return pts


def mp_weighted_tail(c, q, weight):
    """c * sum_{k>=1} weight(k) * q^k, summed term by term at 60 digits.

    ``weight`` is called inside the 60-digit context.  Every weight used here
    is a product of factors k + b with b > 0, so the term ratio
    q*weight(k+1)/weight(k) decreases in k, and once it is r < 1 the rest is
    below the last term times r/(1-r)."""
    import mpmath
    with mpmath.workdps(60):
        q = mpmath.mpf(q)
        total = mpmath.mpf(0)
        qk = mpmath.mpf(1)
        for k in range(1, 100_000):
            qk *= q
            inc = qk * weight(k)
            total += inc
            r = q * mpmath.mpf(weight(k + 1)) / mpmath.mpf(weight(k))
            if r < 1 and inc * r / (1 - r) < total * mpmath.mpf(10) ** -62:
                return mpmath.mpf(c) * total
    raise AssertionError("reference tail did not converge")


def mp_class_weight(lam, alpha, n, convex):
    """k -> the exact T weight (lam*m - lam + 1)(m - alpha) at m = n + k,
    times m for the L weight (``convex``); for `mp_weighted_tail`."""
    import mpmath

    def weight(k):
        m = mpmath.mpf(n + k)
        w = (lam * m - lam + 1) * (m - alpha)
        return m * w if convex else w
    return weight


@pytest.fixture(scope="session")
def unit_disk_points():
    return disk_points()
