"""Closed forms and variance recursions written from the model equations,
independently of the statecast package, so that the benchmark can check the
program's outputs without trusting the code under test.

Every schedule argument is a dict of per-step lists ``a, b, P, N, N_f`` (length
T, index t holds step t) plus the scalar ``V_xx0``.
"""

from __future__ import annotations

import math


def a_star(P: float, N: float) -> float:
    """Largest |a| with a bounded state-estimate-feedback fixed point.

    With c_s = a^2 N^2/(P+N)^2, c_v = a^2 P N/(P+N)^2 and k = c_v/(1 - c_s),
    the stationary point exists iff 1 - k a^2 > 0 (c_s < 1 then holds too).
    In u = a^2 that is P N u^2 + N^2 u - (P+N)^2 < 0, independent of N_f.
    """
    u = (-N * N + math.sqrt(N**4 + 4.0 * P * N * (P + N) ** 2)) / (2.0 * P * N)
    return math.sqrt(u)


def se_fixed_point(a, b, P, N, N_f):
    """(sigma2, sigbar2) of state-estimate feedback for 0 < N_f < inf, or None.

    sigbar2 is the positive root of
    (1 - k a^2) sb^2 + (N_f (1 - a^2) - k b^2) sb - k b^2 N_f = 0,
    and sigma2 = (a^2 sb^2/(sb + N_f) + b^2)/(1 - c_s).
    """
    a2 = a * a
    c_s = a2 * N * N / (P + N) ** 2
    c_v = a2 * P * N / (P + N) ** 2
    if c_s >= 1.0:
        return None
    k = c_v / (1.0 - c_s)
    A = 1.0 - k * a2
    if A <= 0.0:
        return None
    B = N_f * (1.0 - a2) - k * b * b
    C = -k * b * b * N_f
    disc = math.sqrt(B * B - 4.0 * A * C)
    sb = (-B + disc) / (2.0 * A) if B <= 0.0 else 2.0 * C / (-B - disc)
    sigma2 = (a2 * sb * sb / (sb + N_f) + b * b) / (1.0 - c_s)
    return sigma2, sb


def _nhat_ntilde(N: float, N_f: float) -> tuple[float, float]:
    """Variances of the encoder's channel-noise estimate and its remainder."""
    if math.isinf(N_f):
        return 0.0, N
    return N * N / (N + N_f), N * N_f / (N + N_f)


def output_fb_fixed_point(a, b, P, N, N_f):
    """Stationary (sigma2, vbar) of output feedback (N_f may be 0 or inf), or None.

    Noiseless feedback (N_f = 0) is bounded iff a^2 N/(N+P) < 1; any N_f > 0
    leaves a residual that accumulates at rate a^2, so it needs |a| < 1.
    """
    var_nhat, var_ntilde = _nhat_ntilde(N, N_f)
    rho = a * a * (N * N + P * var_nhat) / (P + N) ** 2
    if rho >= 1.0 or (var_ntilde > 0.0 and abs(a) >= 1.0):
        return None
    sigma2 = b * b / (1.0 - rho)
    if var_ntilde == 0.0:
        return sigma2, 0.0
    return sigma2, a * a * P * sigma2 / (P + N) ** 2 * var_ntilde / (1.0 - a * a)


def predict_output_fb(s: dict) -> tuple[list, list]:
    """(sigma2, vbar) series of the output-feedback family (noiseless, noisy, none).

    sigma2(t+1) = a^2 (N^2 + P Var(nhat))/(P+N)^2 sigma2(t) + b^2,
    vbar(t+1) = a^2 vbar(t) + a^2 P sigma2(t)/(P+N)^2 Var(ntilde).
    """
    a, b, P, N, N_f = s["a"], s["b"], s["P"], s["N"], s["N_f"]
    sigma2 = [a[0] ** 2 * s["V_xx0"] + b[0] ** 2]
    vbar = [0.0]
    for t in range(1, len(a)):
        var_nhat, var_ntilde = _nhat_ntilde(N[t], N_f[t])
        den = (P[t] + N[t]) ** 2
        s2 = sigma2[-1]
        sigma2.append(a[t] ** 2 * (N[t] ** 2 + P[t] * var_nhat) / den * s2 + b[t] ** 2)
        vbar.append(a[t] ** 2 * vbar[-1] + a[t] ** 2 * P[t] * s2 / den * var_ntilde)
    return sigma2, vbar


def predict_state_estimate_fb(s: dict) -> tuple[list, list]:
    """(sigma2, sigbar2) series when the decoder's estimate is fed back.

    sigma2' = a^2 N^2/(P+N)^2 sigma2 + a^2 sb^2/(sb+N_f) + b^2,
    sb'     = a^2 N_f sb/(sb+N_f) + a^2 P N/(P+N)^2 sigma2.
    """
    a, b, P, N, N_f = s["a"], s["b"], s["P"], s["N"], s["N_f"]
    sigma2 = [a[0] ** 2 * s["V_xx0"] + b[0] ** 2]
    sb = [0.0]
    for t in range(1, len(a)):
        a2, den = a[t] ** 2, sb[-1] + N_f[t]
        fb = a2 * sb[-1] / den if den > 0.0 else 0.0
        sigma2.append(
            a2 * N[t] ** 2 / (P[t] + N[t]) ** 2 * sigma2[-1] + fb * sb[-1] + b[t] ** 2
        )
        sb.append(fb * N_f[t] + a2 * P[t] * N[t] / (P[t] + N[t]) ** 2 * sigma2[-2])
    return sigma2, sb
