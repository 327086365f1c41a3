"""Independent reference computations used by the tests.

Everything here is built from scratch with scalar math (math.fsum loops, a
textbook Riemann solver) or, for the reduced-velocity run, plain numpy on a
state the package never forms, so the assertions do not reuse the package's
own vectorized kernels.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GAMMA = 5.0 / 3.0  # monoatomic gas; the solver's closure E = rho|u|^2/2 + (3/2) rho theta


def maxwellian_value(rho: float, u, theta: float, v) -> float:
    """Scalar Maxwellian; plain math.exp, no array code."""
    q = sum((vi - ui) ** 2 for vi, ui in zip(v, u))
    return rho / (2.0 * math.pi * theta) ** 1.5 * math.exp(-q / (2.0 * theta))


def gauss_moments(rho: float, u, theta: float, centers) -> tuple:
    """Midpoint-quadrature moments of one cell's Maxwellian by brute force.

    centers is the per-axis tuple of velocity node arrays. Accumulation uses
    fsum over the full 3D node set, so the result is an independent check of
    the separable fast path.
    """
    cx, cy, cz = centers
    dv = (cx[1] - cx[0]) * (cy[1] - cy[0]) * (cz[1] - cz[0])
    masses, mx, my, mz, e2 = [], [], [], [], []
    for vx in cx:
        for vy in cy:
            for vz in cz:
                w = maxwellian_value(rho, u, theta, (vx, vy, vz))
                masses.append(w)
                mx.append(w * vx)
                my.append(w * vy)
                mz.append(w * vz)
    mass = math.fsum(masses) * dv
    ubar = (math.fsum(mx) * dv / mass, math.fsum(my) * dv / mass,
            math.fsum(mz) * dv / mass)
    for vx in cx:
        for vy in cy:
            for vz in cz:
                w = maxwellian_value(rho, u, theta, (vx, vy, vz))
                q = ((vx - ubar[0]) ** 2 + (vy - ubar[1]) ** 2
                     + (vz - ubar[2]) ** 2)
                e2.append(w * q)
    theta_bar = math.fsum(e2) * dv / (3.0 * mass)
    return mass, ubar, theta_bar


def relax_weight(lams) -> float:
    """Closed-form survival factor of m implicit relaxation steps."""
    out = 1.0
    for lam in lams:
        out /= 1.0 + lam
    return out


def transport_reference(f, dt: float, dx: float, cx, dv_x: float,
                        periodic: bool, force=None) -> np.ndarray:
    """One upwind transport step with the v_x field flux, one node at a time.

    f is (n_x, n_vx, n_vy, n_vz) and force the per-cell field or None. The
    flux through an x face takes its donor from the upwind side; past an
    absorbing boundary the donor is empty. The field flux through an interior
    v_x face is central with max-speed dissipation, and zero through the two
    faces of the velocity cube.
    """
    n_x, n_vx, n_vy, n_vz = f.shape
    e_max = max(abs(float(e)) for e in force) if force is not None else 0.0

    def value(i, j, k, l):
        if 0 <= i < n_x or periodic:
            return float(f[i % n_x, j, k, l])
        return 0.0

    def x_flux(i, j, k, l):  # face between cells i - 1 and i
        donor = i - 1 if cx[j] > 0.0 else i
        return float(cx[j]) * value(donor, j, k, l)

    def v_flux(i, j, k, l):  # face between v_x cells j - 1 and j
        if force is None or j == 0 or j == n_vx:
            return 0.0
        lo, hi = float(f[i, j - 1, k, l]), float(f[i, j, k, l])
        return 0.5 * float(force[i]) * (lo + hi) - 0.5 * e_max * (hi - lo)

    out = np.empty(f.shape)
    for i, j, k, l in itertools.product(range(n_x), range(n_vx), range(n_vy),
                                        range(n_vz)):
        out[i, j, k, l] = (float(f[i, j, k, l])
                           - dt / dx * (x_flux(i + 1, j, k, l) - x_flux(i, j, k, l))
                           - dt / dv_x * (v_flux(i, j + 1, k, l) - v_flux(i, j, k, l)))
    return out


def _reduced_moments(s, cx, dvol):
    """(rho, u, theta) of a reduced marginal s[i, j_x, (1, v_y, v_z, v_y^2 + v_z^2)]."""
    rho = s[:, :, 0].sum(axis=1) * dvol
    u = np.stack([(cx * s[:, :, 0]).sum(axis=1), s[:, :, 1].sum(axis=1),
                  s[:, :, 2].sum(axis=1)], axis=1) * dvol / rho[:, None]
    energy = (cx * cx * s[:, :, 0] + s[:, :, 3]).sum(axis=1) * dvol / rho
    theta = (energy - (u * u).sum(axis=1)) / 3.0
    return rho, u, theta


def _reduced_maxwellian(rho, u, theta, centers, dvol):
    """Reduced marginal of the mass-normalised discrete Maxwellian.

    The Maxwellian is amp g_x g_y g_z with one Gaussian table per axis and
    amp = rho / (sum g_x sum g_y sum g_z dvol), so its (v_y, v_z) sums are
    products of 1D sums of g_y and g_z weighted by 1, v and v^2.
    """
    g = [np.exp(-(c[None, :] - u[:, a, None]) ** 2 / (2.0 * theta[:, None]))
         for a, c in enumerate(centers)]
    cy, cz = centers[1], centers[2]
    sy = [(g[1] * cy ** p).sum(axis=1) for p in range(3)]
    sz = [(g[2] * cz ** p).sum(axis=1) for p in range(3)]
    amp = rho / (g[0].sum(axis=1) * sy[0] * sz[0] * dvol)
    plane = np.stack([sy[0] * sz[0], sy[1] * sz[0], sy[0] * sz[1],
                      sy[2] * sz[0] + sy[0] * sz[2]], axis=1)
    return (amp[:, None] * g[0])[:, :, None] * plane[:, None, :]


def _reduced_transport(s, dt, dx, cx, dv_x, periodic, force):
    """One upwind x step and one v_x field step, both from s, in flux form."""
    n_x = s.shape[0]
    ghost = np.zeros((n_x + 2,) + s.shape[1:])
    ghost[1:-1] = s
    if periodic:
        ghost[0], ghost[-1] = s[-1], s[0]
    right = np.maximum(cx, 0.0)[None, :, None]
    left = np.minimum(cx, 0.0)[None, :, None]
    # x face i - 1/2 for i = 0 .. n_x: upwind donor on each side
    x_flux = right * ghost[:-1] + left * ghost[1:]
    out = s - dt / dx * (x_flux[1:] - x_flux[:-1])
    if force is not None:
        e = force[:, None, None]
        e_max = float(np.max(np.abs(force)))
        lo, hi = s[:, :-1], s[:, 1:]
        # central flux with max-speed dissipation through interior v_x faces;
        # none through the two faces of the velocity cube
        v_flux = np.zeros((n_x, s.shape[1] + 1, s.shape[2]))
        v_flux[:, 1:-1] = 0.5 * e * (lo + hi) - 0.5 * e_max * (hi - lo)
        out -= dt / dv_x * (v_flux[:, 1:] - v_flux[:, :-1])
    return out


def reduced_fine(f0, dx: float, v_max: float, centers, epsilon: float, force,
                 cfl: float, periodic: bool, times, dt_max: float) -> list:
    """Moments (rho, u, theta) at each of `times` of the fine kinetic run,
    computed on the reduced marginal alone.

    The transport's coefficients depend on v_x only and the relaxation's
    Maxwellian on moments only, so the scheme acts on
    s[i, j_x] = sum over (v_y, v_z) of f (1, v_y, v_z, v_y^2 + v_z^2) exactly
    as on the cube. f0 is only reduced. Each interval between consecutive
    times is stepped with dt = min(cap, dt_max, remaining) until what remains
    is below 1e-12 of the interval, with cap the CFL bound
    cfl / (v_max / dx + E_max / dv_x); each step transports, then relaxes
    implicitly with lam = dt / epsilon.
    """
    cx, cy, cz = centers
    dv = [2.0 * v_max / c.size for c in centers]
    dvol = dv[0] * dv[1] * dv[2]
    rate = v_max / dx
    if force is not None:
        rate += float(np.max(np.abs(force))) / dv[0]
    cap = cfl / rate
    vy, vz = np.meshgrid(cy, cz, indexing="ij")
    weights = (np.ones_like(vy), vy, vz, vy * vy + vz * vz)
    s = np.stack([np.einsum("ijkl,kl->ij", f0, w) for w in weights], axis=2)
    snapshots = [_reduced_moments(s, cx, dvol)]
    for t0, t1 in zip(times[:-1], times[1:]):
        span = t1 - t0
        elapsed = 0.0
        while span - elapsed > 1e-12 * span:
            dt = min(cap, dt_max, span - elapsed)
            s = _reduced_transport(s, dt, dx, cx, dv[0], periodic, force)
            lam = dt / epsilon
            maxwellian = _reduced_maxwellian(*_reduced_moments(s, cx, dvol),
                                             centers, dvol)
            s = (s + lam * maxwellian) / (1.0 + lam)
            elapsed += dt
        snapshots.append(_reduced_moments(s, cx, dvol))
    return snapshots


# Exact Riemann solver for the 1D Euler equations with ideal-gas pressure,
# following the standard pressure-function Newton iteration and fan sampling.
# States are (rho, u, p) tuples.

def _sound(rho: float, p: float) -> float:
    return math.sqrt(GAMMA * p / rho)


def _pressure_fn(p: float, rho_k: float, p_k: float) -> tuple[float, float]:
    c_k = _sound(rho_k, p_k)
    if p > p_k:  # shock branch
        a = 2.0 / ((GAMMA + 1.0) * rho_k)
        b = (GAMMA - 1.0) / (GAMMA + 1.0) * p_k
        root = math.sqrt(a / (p + b))
        return (p - p_k) * root, root * (1.0 - (p - p_k) / (2.0 * (p + b)))
    ratio = p / p_k
    f = 2.0 * c_k / (GAMMA - 1.0) * (ratio ** ((GAMMA - 1.0) / (2.0 * GAMMA)) - 1.0)
    df = ratio ** (-(GAMMA + 1.0) / (2.0 * GAMMA)) / (rho_k * c_k)
    return f, df


def riemann_star(left, right) -> tuple[float, float]:
    """Pressure and velocity of the star region between the two waves."""
    rho_l, u_l, p_l = left
    rho_r, u_r, p_r = right
    c_l, c_r = _sound(rho_l, p_l), _sound(rho_r, p_r)
    # two-rarefaction guess keeps the Newton iterate positive
    z = (GAMMA - 1.0) / (2.0 * GAMMA)
    p = ((c_l + c_r - 0.5 * (GAMMA - 1.0) * (u_r - u_l))
         / (c_l / p_l ** z + c_r / p_r ** z)) ** (1.0 / z)
    for _ in range(60):
        f_l, df_l = _pressure_fn(p, rho_l, p_l)
        f_r, df_r = _pressure_fn(p, rho_r, p_r)
        delta = (f_l + f_r + u_r - u_l) / (df_l + df_r)
        p -= delta
        if abs(delta) < 1e-15 * p:
            break
    f_l, _ = _pressure_fn(p, rho_l, p_l)
    f_r, _ = _pressure_fn(p, rho_r, p_r)
    return p, 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)


def _sample_side(xi, rho_k, u_k, p_k, p_star, u_star, sign):
    """Density on one side of the contact; sign is -1 left, +1 right."""
    c_k = _sound(rho_k, p_k)
    gp = (GAMMA + 1.0) / (2.0 * GAMMA)
    gm = (GAMMA - 1.0) / (2.0 * GAMMA)
    beta = (GAMMA - 1.0) / (GAMMA + 1.0)
    ratio = p_star / p_k
    if p_star > p_k:  # shock
        s = u_k + sign * c_k * math.sqrt(gp * ratio + gm)
        outside = sign * (xi - s) > 0.0
        if outside:
            return rho_k
        return rho_k * (ratio + beta) / (beta * ratio + 1.0)
    head = u_k + sign * c_k
    c_star = c_k * ratio ** gm
    tail = u_star + sign * c_star
    if sign * (xi - head) > 0.0:
        return rho_k
    if sign * (xi - tail) < 0.0:
        return rho_k * ratio ** (1.0 / GAMMA)
    inner = 2.0 / (GAMMA + 1.0) - sign * beta / c_k * (u_k - xi)
    return rho_k * inner ** (2.0 / (GAMMA - 1.0))


def riemann_density(left, right, xi) -> np.ndarray:
    """Exact self-similar density profile at speeds xi = x / t."""
    p_star, u_star = riemann_star(left, right)
    out = np.empty(len(xi))
    for i, x in enumerate(xi):
        if x <= u_star:
            out[i] = _sample_side(x, left[0], left[1], left[2],
                                  p_star, u_star, -1.0)
        else:
            out[i] = _sample_side(x, right[0], right[1], right[2],
                                  p_star, u_star, +1.0)
    return out
