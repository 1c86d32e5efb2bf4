"""The benchmark's workloads: seeded input generators, program-side
preparation, and the checked operations of each round.

Each workload offers
  generate(seed)        -> pure data (JSON-serializable), made by the
                           benchmark with ecref, never by distmap
  round_inputs(data, r) -> pure data for round r, likewise
  prepare(dm, data)     -> program-side state (contexts, bases, maps);
                           this is what setup_s times
  round_ops(dm, state, data, r) -> list of Op for round r

An Op carries its class ("a" or "b", see BENCHMARK.json), the call to
time, and the oracle that judges what the call returned or raised.
Inputs inside a round are made before any of its ops is timed.
"""

import random
from math import isqrt

import ecref

# Additive-recurrence steps that spread positions evenly in [0, 1) for any
# number of terms: the golden ratio in one dimension, the plastic number's
# R2 pair in two.
PHI = (5 ** 0.5 - 1) / 2
PLASTIC = 1.32471795724474602596
R2 = (1 / PLASTIC, 1 / PLASTIC ** 2)


class Op:
    __slots__ = ("klass", "call", "check", "accept")

    def __init__(self, klass, call, check, accept=None):
        self.klass = klass
        self.call = call      # () -> result; the only timed part
        self.check = check    # result -> bool
        self.accept = accept  # exception -> bool, for correct refusals


def _rng(*parts):
    return random.Random(":".join(map(str, parts)))


def _triple(B, a, b, c):
    """(aP, bP, cP) computed with ecref."""
    C = B.curve
    return tuple(ecref.mul(C.p, C.a4, k, B.P) for k in (a, b, c))


def _ddh_op(dm, B, phi, inst, klass):
    """One DDH decision, checked against the truth (a, b, c) the triple
    was made from."""
    a, b, c = inst.truth
    honest = (a * b - c) % B.ell == 0
    return Op(klass, lambda: dm.ddh.ddh_decide(B, phi, inst),
              lambda res: res is honest)


# --- ddh-ex2 -----------------------------------------------------------------

class DdhEx2:
    """ddh_decide on the paper's F_701 curve with the published basis."""

    name = "ddh-ex2"
    round_size = 64
    ref_adds = 80        # reference kernel of about 0.2 ms, half an op
    op_timeout = 5.0
    trace_rounds = 16

    def generate(self, seed):
        return {"seed": seed}

    def prepare(self, dm, data):
        entry = dm.catalog.builtin_catalog()["ex2-f701"]
        ctx = dm.torsion.TorsionContext(5, entry.curve, entry.frob)
        return {
            "B": dm.torsion.TorsionBasis(ctx, (224, 31), (573, 450)),
            "phi": dm.endo.make_catalog_endo("alpha_701", entry.curve),
        }

    def round_inputs(self, data, r):
        rng = _rng(self.name, data["seed"], r)
        return [(i % 2 == 0, rng.getrandbits(48)) for i in range(self.round_size)]

    def round_ops(self, dm, state, data, r):
        B = state["B"]
        ops = []
        for honest, s in self.round_inputs(data, r):
            inst = dm.ddh.ddh_sample(B, honest, seed=s)
            a, b, c = inst.truth
            if inst.triple != _triple(B, a, b, c) or honest != (a * b % B.ell == c):
                raise RuntimeError(f"ddh_sample made a bad instance {inst!r}")
            ops.append(_ddh_op(dm, B, state["phi"], inst, "a" if honest else "b"))
        return ops


# --- cm-ell ------------------------------------------------------------------

CM_ELLS = [q for q in range(31, 100) if ecref.is_prime(q)]


def cm_curve(ell, rng):
    """y^2 = x^3 + A*x over F_p with E[ell] fully rational.

    Frobenius pi = (1 + ell*c) + ell*d*i has p = N(pi) prime, so
    pi = 1 mod ell*Z[i] and #E = N(pi - 1) = ell^2 (c^2 + d^2) by
    construction.  Of the four quartic twists exactly one has that order;
    A is accepted only when #E*R = O on 6 points that actually lifted.
    """
    bound = isqrt((1 << 31) // (ell * ell)) + 1
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(1, bound)
        p = (1 + ell * c) ** 2 + (ell * d) ** 2
        if (1 << 30) <= p < (1 << 31) and ecref.is_prime(p):
            break
    order = ell * ell * (c * c + d * d)
    while True:
        A = rng.randrange(1, p)
        if ecref.kills(p, A, order, ecref.random_points(p, A, 0, rng, 6)):
            return {"ell": ell, "p": p, "a4": A, "order": order,
                    "basis_seed": rng.getrandbits(32)}


class CmEll:
    """Census on generated curves with rational E[ell], 31 <= ell <= 97,
    plus DDH decisions on the inert ones (ell = 3 mod 4).

    Each prime has CURVES_PER_ELL curves and round r uses the (r mod
    CURVES_PER_ELL)-th of each, so that a run's quantiles average over
    several curves per prime rather than hinge on one seeded draw.
    """

    name = "cm-ell"
    CURVES_PER_ELL = 3
    ddh_per_inert_curve = 2
    ref_adds = 500       # about 1 ms, a few percent of an op
    op_timeout = 20.0
    trace_rounds = CURVES_PER_ELL

    def generate(self, seed):
        rng = _rng(self.name, seed)
        curves = [cm_curve(ell, rng)
                  for ell in CM_ELLS for _ in range(self.CURVES_PER_ELL)]
        for cv in curves:
            cv["ddh_offsets"] = [rng.random() for _ in range(3)]
        return {"seed": seed, "curves": curves}

    def prepare(self, dm, data):
        state = []
        for cv in data["curves"]:
            p, ell = cv["p"], cv["ell"]
            C = dm.curve.Curve(dm.field.PrimeField(p), cv["a4"], 0)
            frob = dm.curve.FrobeniusData(p, cv["order"], p + 1 - cv["order"])
            ctx = dm.torsion.TorsionContext(ell, C, frob)
            st = {
                "ctx": ctx,
                "phi": dm.endo.make_catalog_endo("sqrt_minus_one", C),
                "od": dm.classify.OrderData.from_frobenius(frob.trace_t, p, 1),
                "B": None,
            }
            if ell % 4 == 3:
                st["B"] = dm.torsion.find_torsion_basis(ctx, seed=cv["basis_seed"])
            state.append(st)
        return state

    def round_inputs(self, data, r):
        """(curve index, "census", basis seed) or (curve index, "ddh",
        (a, b, c)) rows; split curves get no DDH (P may lie on an eigenline
        of [i] there).

        dlog2d's cost on <P> grows with a + b + c, so the exponents follow
        an R2 sequence from seeded offsets rather than independent draws:
        the latency quantiles then settle within a few rounds.  Even terms
        are honest (c = ab), odd terms forged (c != ab).
        """
        rng = _rng(self.name, data["seed"], "round", r)
        rows = []
        curves = data["curves"]
        for k in range(r % self.CURVES_PER_ELL, len(curves), self.CURVES_PER_ELL):
            cv = curves[k]
            rows.append((k, "census", rng.getrandbits(32)))
            ell = cv["ell"]
            if ell % 4 != 3:
                continue
            ua, ub, uc = cv["ddh_offsets"]
            for i in range(self.ddh_per_inert_curve):
                j = r // self.CURVES_PER_ELL * self.ddh_per_inert_curve + i
                a = 1 + int((ua + j * R2[0]) % 1 * (ell - 1))
                b = 1 + int((ub + j * R2[1]) % 1 * (ell - 1))
                c = a * b % ell
                if j % 2:
                    c = (c + 1 + int((uc + j * PHI) % 1 * (ell - 1))) % ell
                rows.append((k, "ddh", (a, b, c)))
        return rows

    def round_ops(self, dm, state, data, r):
        ops = []
        for k, kind, arg in self.round_inputs(data, r):
            st = state[k]
            if kind == "census":
                ops.append(self._census_op(dm, data["curves"][k]["ell"], st, arg))
            else:
                B = st["B"]
                inst = dm.ddh.DdhInstance(B.P, _triple(B, *arg), truth=arg)
                ops.append(_ddh_op(dm, B, st["phi"], inst, "b"))
        return ops

    def _census_op(self, dm, ell, st, basis_seed):
        inert = ell % 4 == 3
        tag = dm.classify.INERT if inert else dm.classify.SPLIT
        want = ell + 1 if inert else ell - 1

        def call():
            B = dm.torsion.find_torsion_basis(st["ctx"], seed=basis_seed)
            M = dm.endo.endo_matrix(st["phi"], B)
            census = dm.classify.distortion_census(M)
            return census, dm.classify.verify_theorem1(st["od"], M, ell)

        def check(res):
            census, verified = res
            return all(rep.case_tag == tag and rep.census_distorted == want
                       for rep in (census, verified))

        return Op("a", call, check)


# --- count-mixed -------------------------------------------------------------

SMALL_BITS = range(11, 19)   # 2^10 <= p < 2^18, exhaustive character sum
LARGE_BITS = range(27, 43)   # 2^26 <= p < 2^42, BSGS
SMALL_PER_OCTAVE = 2


def _prime_in_octave(bits, frac):
    """The first prime at or above 2^(bits - 1 + frac), kept below 2^bits."""
    n = int(2 ** (bits - 1 + frac)) | 1
    while not ecref.is_prime(n):
        n += 2
    if n >= 1 << bits:
        n = (1 << bits) - 1
        while not ecref.is_prime(n):
            n -= 2
    return n


class CountMixed:
    """count_points on random nonsingular curves, half with p in each band.

    Within each octave of p the positions follow a golden-ratio sequence
    from a seeded offset, so any number of rounds covers the octave
    evenly and the band quantiles do not hinge on a few lucky draws.
    """

    name = "count-mixed"
    ref_adds = 500
    op_timeout = 20.0
    trace_rounds = 1

    def generate(self, seed):
        rng = _rng(self.name, seed)
        return {"seed": seed, "small_offset": rng.random(),
                "large_offset": rng.random()}

    def prepare(self, dm, data):
        return None

    def round_inputs(self, data, r):
        rng = _rng(self.name, data["seed"], "round", r)
        small = [_prime_in_octave(b, (data["small_offset"]
                                      + (SMALL_PER_OCTAVE * r + j) * PHI) % 1)
                 for b in SMALL_BITS for j in range(SMALL_PER_OCTAVE)]
        large = [_prime_in_octave(b, (data["large_offset"] + r * PHI) % 1)
                 for b in LARGE_BITS]
        rows = []
        for small_p, large_p in zip(small, large):
            for p in (small_p, large_p):
                while True:
                    a4, a6 = rng.randrange(p), rng.randrange(p)
                    if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
                        break
                rows.append((p, a4, a6, rng.getrandbits(32)))
        return rows

    def round_ops(self, dm, state, data, r):
        return [self._count_op(dm, p, a4, a6, check_seed)
                for p, a4, a6, check_seed in self.round_inputs(data, r)]

    def _count_op(self, dm, p, a4, a6, check_seed):
        klass = "a" if p < 1 << 18 else "b"

        def call():
            return dm.curve.count_points(
                dm.curve.Curve(dm.field.PrimeField(p), a4, a6))

        def kills(n, twist=False):
            rng = random.Random(check_seed + twist)
            if not twist:
                return ecref.kills(p, a4, n, ecref.random_points(p, a4, a6, rng, 6))
            # quadratic twist by a non-residue g: order 2p + 2 - n
            g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
            ta4, ta6 = a4 * g * g % p, a6 * g * g * g % p
            return ecref.kills(p, ta4, 2 * p + 2 - n,
                               ecref.random_points(p, ta4, ta6, rng, 3))

        def check(frob):
            n = frob.order_n
            return ((n - p - 1) ** 2 <= 4 * p and frob.trace_t == p + 1 - n
                    and kills(n) and kills(n, twist=True))

        def accept(exc):
            # supersingular is a correct refusal only if #E = p + 1
            return (isinstance(exc, dm.curve.SupersingularCurve)
                    and kills(p + 1) and kills(p + 1, twist=True))

        return Op(klass, call, check, accept)


WORKLOADS = {w.name: w for w in (DdhEx2(), CmEll(), CountMixed())}
