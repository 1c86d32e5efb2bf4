"""Reference curve arithmetic the benchmark uses to build and check inputs.

Deliberately independent of distmap: the oracle must not share code with
the program it checks.  Points are affine (x, y) tuples, the identity is
None, curves are y^2 = x^3 + a4*x + a6 over F_p with p an odd prime.
"""


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a, p):
    """A square root of a mod p, or None for a non-residue (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def add(p, a4, A, B):
    if A is None:
        return B
    if B is None:
        return A
    x1, y1 = A
    x2, y2 = B
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def mul(p, a4, k, A):
    """k*A for k >= 0 by double-and-add."""
    R = None
    while k:
        if k & 1:
            R = add(p, a4, R, A)
        A = add(p, a4, A, A)
        k >>= 1
    return R


def random_points(p, a4, a6, rng, count):
    """count random affine points with y != 0 (failed lifts are skipped,
    never counted)."""
    pts = []
    while len(pts) < count:
        x = rng.randrange(p)
        y = sqrt_mod(x * x * x + a4 * x + a6, p)
        if y:
            pts.append((x, y if rng.randrange(2) else p - y))
    return pts


def kills(p, a4, n, points):
    """True iff n*R = O for every R in points."""
    return all(mul(p, a4, n, R) is None for R in points)
