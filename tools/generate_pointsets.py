#!/usr/bin/env python3
"""Generate the point-set files shipped under src/sphsolve/data/pointsets.

Three configuration families, all produced by deterministic seeded
optimization from equal-area initial layouts:

* spherical t-designs, m = (t+1)^2: drive the equal-weight quadrature
  residuals on all harmonics of degree 1..t to the round-off floor.
  Phase A minimizes the collapsed worst-case functional
  F = (2pi/m^2) sum_{j,j'} sum_{l=1..t} (2l+1) P_l(x_j . x_j')
  with L-BFGS (cheap zonal sums, analytic gradient); phase B polishes
  with Levenberg-Marquardt on the explicit residual vector, whose
  Jacobian costs almost nothing because moving one point changes one
  basis column only.
* minimal Coulomb-energy points (sum of inverse pairwise distances).
* maximal-determinant (Fekete) points at m = (n+1)^2: maximize
  log|det| of the square basis matrix.

Files are plain text `x y z` rows at 17 significant digits.  Quality is
verified after generation (exactness degree and MZ constant at n = t/2).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# The package's basis recurrence without its unit-vector check, so the
# optimizer's iterates are used exactly as they are.
from sphsolve.harmonics import _basis_matrix as basis_matrix  # noqa: E402
from sphsolve.mz import mz_constant  # noqa: E402
from sphsolve.pointsets import QuadratureRule, equal_area_points, save_pointset  # noqa: E402

FOUR_PI = 4.0 * math.pi

# t of every bundled design, the default of --designs
DESIGNS = "10,12,18,20,24,30,36,40,42"


# ----------------------------------------------------------------- geometry

def angles_from_points(pts: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return np.concatenate([theta, phi])


def points_from_angles(z: np.ndarray) -> np.ndarray:
    m = z.size // 2
    theta, phi = z[:m], z[m:]
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)


def tangent_frames(z: np.ndarray):
    """d x / d theta and d x / d phi for every point (phi one unnormalized)."""
    m = z.size // 2
    theta, phi = z[:m], z[m:]
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    dth = np.stack([ct * cp, ct * sp, -st], axis=1)
    dph = np.stack([-st * sp, st * cp, np.zeros(m)], axis=1)
    return dth, dph


# ------------------------------------------------- phase A: zonal functional

def _zonal_value_grad(pts, t_deg):
    """F = sum_{j,j'} K_t(x_j.x_j') and dF/dx_j = 2 sum_b K_t'(x_j.x_b) x_b,
    with K_t(c) = sum_{l=1..t} (2l+1) P_l(c).  Self-pairs included (their
    contribution is a constant and a radial gradient, both harmless).
    Rows are taken in chunks so that each block stays near 2^21 entries."""
    m = pts.shape[0]
    val = 0.0
    grad = np.zeros((m, 3))
    chunk = max(1, (1 << 21) // m)
    for s in range(0, m, chunk):
        c = np.clip(pts[s:s + chunk] @ pts.T, -1.0, 1.0)
        pprev = np.ones_like(c)
        pcur = c.copy()
        dprev = np.zeros_like(c)
        dcur = np.ones_like(c)
        kv = 3.0 * pcur
        kd = 3.0 * dcur.copy()
        for l in range(1, t_deg):
            pnext = ((2 * l + 1) * c * pcur - l * pprev) / (l + 1)
            dnext = dprev + (2 * l + 1) * pcur
            kv += (2 * l + 3) * pnext
            kd += (2 * l + 3) * dnext
            pprev, pcur = pcur, pnext
            dprev, dcur = dcur, dnext
        val += float(kv.sum())
        grad[s:s + chunk] = 2.0 * (kd @ pts)
    return val, grad


def _phase_a_objective(z, t_deg, scale):
    pts = points_from_angles(z)
    val, gpts = _zonal_value_grad(pts, t_deg)
    dth, dph = tangent_frames(z)
    g = np.concatenate([(gpts * dth).sum(axis=1), (gpts * dph).sum(axis=1)])
    return scale * val, scale * g


# --------------------------------------------- phase B: residual + LM polish

def design_residual(pts: np.ndarray, t_deg: int) -> np.ndarray:
    """Equal-weight quadrature residuals on harmonics of degree 1..t.

    The degree-0 row integrates exactly for any point count, so it is
    excluded; remaining true integrals are all zero.
    """
    m = pts.shape[0]
    Y = basis_matrix(t_deg, pts)
    return (FOUR_PI / m) * Y[1:].sum(axis=1)


def _design_jacobian(z: np.ndarray, t_deg: int, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of design_residual w.r.t. the angles.

    Perturbing point j only changes column j of the basis matrix, so each
    of the 2m columns needs two single-point basis evaluations.
    """
    m = z.size // 2
    dim = (t_deg + 1) ** 2 - 1
    J = np.empty((dim, 2 * m))
    zp = z.copy()
    for q in range(2 * m):
        orig = zp[q]
        zp[q] = orig + h
        yp = basis_matrix(t_deg, points_from_angles_single(zp, q % m))
        zp[q] = orig - h
        ym = basis_matrix(t_deg, points_from_angles_single(zp, q % m))
        zp[q] = orig
        J[:, q] = (FOUR_PI / m) * (yp[1:, 0] - ym[1:, 0]) / (2.0 * h)
    return J


def points_from_angles_single(z: np.ndarray, j: int) -> np.ndarray:
    m = z.size // 2
    th, ph = z[j], z[m + j]
    st = math.sin(th)
    return np.array([[st * math.cos(ph), st * math.sin(ph), math.cos(th)]])


def _lm_polish(z: np.ndarray, t_deg: int, max_iter: int = 60,
               target: float = 5e-16, verbose: bool = True) -> np.ndarray:
    lam = 1e-8
    r = design_residual(points_from_angles(z), t_deg)
    best = float(np.max(np.abs(r)))
    stall = 0
    for it in range(max_iter):
        if best <= target:
            break
        J = _design_jacobian(z, t_deg)
        JJt = J @ J.T
        diag_scale = float(np.mean(np.diag(JJt))) or 1.0
        improved = False
        for _ in range(12):
            try:
                cf = cho_factor(JJt + lam * diag_scale * np.eye(JJt.shape[0]),
                                lower=True)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            step = -J.T @ cho_solve(cf, r)
            z_try = z + step
            r_try = design_residual(points_from_angles(z_try), t_deg)
            norm_try = float(np.max(np.abs(r_try)))
            if norm_try < best:
                z, r, best = z_try, r_try, norm_try
                lam = max(lam * 0.25, 1e-14)
                improved = True
                break
            lam *= 10.0
        if verbose:
            print(f"    LM iter {it + 1}: max residual {best:.3e} lambda {lam:.1e}")
        if not improved:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
    return z


def generate_t_design(t_deg: int, seed: int = 0, verbose: bool = True):
    """Return (points, max residual) for an m = (t+1)^2 spherical t-design."""
    m = (t_deg + 1) ** 2
    rng = np.random.default_rng(seed)
    pts0 = equal_area_points(m).points.copy()
    if seed:  # retry path: jitter the initial layout
        pts0 += rng.normal(scale=0.2 / math.sqrt(m), size=pts0.shape)
        pts0 /= np.linalg.norm(pts0, axis=1)[:, None]
    z = angles_from_points(pts0)
    scale = 1.0 / m ** 2  # keeps the objective O(1) across sizes
    res = minimize(_phase_a_objective, z, args=(t_deg, scale),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": 4000, "ftol": 1e-18, "gtol": 1e-14,
                            "maxcor": 25})
    z = res.x
    r0 = float(np.max(np.abs(design_residual(points_from_angles(z), t_deg))))
    if verbose:
        print(f"    phase A done ({res.nit} iters): max residual {r0:.3e}")
    z = _lm_polish(z, t_deg, verbose=verbose)
    pts = points_from_angles(z)
    rmax = float(np.max(np.abs(design_residual(pts, t_deg))))
    return pts, rmax


# -------------------------------------------------- minimal energy and Fekete

def _coulomb_value_grad(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    r2 = (diff ** 2).sum(axis=2)
    np.fill_diagonal(r2, np.inf)
    r = np.sqrt(r2)
    val = 0.5 * float((1.0 / r).sum())
    grad = (-diff / (r2 * r)[:, :, None]).sum(axis=1)
    return val, grad


def generate_minimal_energy(m: int, verbose: bool = True) -> np.ndarray:
    def objective(z):
        pts = points_from_angles(z)
        val, gpts = _coulomb_value_grad(pts)
        dth, dph = tangent_frames(z)
        g = np.concatenate([(gpts * dth).sum(axis=1), (gpts * dph).sum(axis=1)])
        return val, g

    z0 = angles_from_points(equal_area_points(m).points.copy())
    res = minimize(objective, z0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 6000, "ftol": 1e-16, "gtol": 1e-9})
    if verbose:
        print(f"    energy {res.fun:.9f} after {res.nit} iters "
              f"(|grad| {float(np.max(np.abs(res.jac))):.2e})")
    return points_from_angles(res.x)


def generate_fekete(m: int, init: np.ndarray | None = None,
                    verbose: bool = True) -> np.ndarray:
    """Maximize log|det Y| for the square basis matrix, n = sqrt(m) - 1.

    The equal-area layout is useless as a start here: its rings make Y
    numerically singular (equally spaced longitudes on shared colatitudes
    give dependent high-order rows).  Pass a well-conditioned init, e.g.
    a t-design of the same size; log|det| then acts as its own barrier
    against returning to singular configurations.
    """
    n = int(round(math.sqrt(m))) - 1
    if (n + 1) ** 2 != m:
        raise ValueError(f"Fekete point count must be a square, got {m}")
    h = 1e-6

    def objective(z):
        pts = points_from_angles(z)
        Y = basis_matrix(n, pts)
        lu, piv = lu_factor(Y)
        diag = np.abs(np.diag(lu))
        if np.any(diag == 0.0):
            return 1e300, np.zeros(2 * m)
        logdet = float(np.sum(np.log(diag)))
        Yinv = lu_solve((lu, piv), np.eye(m))
        if not np.all(np.isfinite(Yinv)):
            return 1e300, np.zeros(2 * m)
        g = np.empty(2 * m)
        zp = z.copy()
        for j in range(m):
            row = Yinv[j]
            for q in (j, m + j):
                orig = zp[q]
                zp[q] = orig + h
                yp = basis_matrix(n, points_from_angles_single(zp, j))[:, 0]
                zp[q] = orig - h
                ym = basis_matrix(n, points_from_angles_single(zp, j))[:, 0]
                zp[q] = orig
                g[q] = -row @ ((yp - ym) / (2.0 * h))
        return -logdet, g

    if init is None:
        rng = np.random.default_rng(7)
        init = equal_area_points(m).points.copy()
        init += rng.normal(scale=0.05 / math.sqrt(m), size=init.shape)
        init /= np.linalg.norm(init, axis=1)[:, None]
    z0 = angles_from_points(init)
    res = minimize(objective, z0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 3000, "ftol": 1e-16, "gtol": 1e-8})
    if verbose:
        print(f"    log|det Y| {-res.fun:.6f} after {res.nit} iters")
    return points_from_angles(res.x)


# ------------------------------------------------------------------- driver

def _verify_and_save(pts: np.ndarray, name: str, label: str, out_dir: Path,
                     check_degree: int | None = None) -> None:
    m = pts.shape[0]
    rule = QuadratureRule(points=pts, weights=np.full(m, FOUR_PI / m),
                          label=label)
    if check_degree is not None:
        rep = mz_constant(rule, check_degree // 2)
        print(f"    verify: exact_to {rep.exact_to}  "
              f"eta(n={check_degree // 2}) {rep.eta:.3e}")
    path = out_dir / name
    save_pointset(rule, path, include_weights=False)
    print(f"    wrote {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "src" / "sphsolve" / "data" / "pointsets")
    ap.add_argument("--designs", type=str, default=DESIGNS,
                    help="comma-separated t values for spherical t-designs")
    ap.add_argument("--me", type=int, default=441,
                    help="point count for the minimal-energy set (0 skips)")
    ap.add_argument("--fekete", type=int, default=441,
                    help="point count for the Fekete set (0 skips)")
    ap.add_argument("--residual-gate", type=float, default=5e-15,
                    help="max allowed t-design residual before retrying")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    for t_str in filter(None, args.designs.split(",")):
        t_deg = int(t_str)
        m = (t_deg + 1) ** 2
        print(f"t-design t={t_deg}, m={m}")
        start = time.perf_counter()
        best_pts, best_r = None, math.inf
        for seed in range(4):
            pts, rmax = generate_t_design(t_deg, seed=seed)
            if rmax < best_r:
                best_pts, best_r = pts, rmax
            if best_r <= args.residual_gate:
                break
            print(f"    residual {rmax:.3e} above gate, retrying (seed {seed + 1})")
        print(f"  final residual {best_r:.3e} in {time.perf_counter() - start:.1f}s")
        _verify_and_save(best_pts, f"td{t_deg:03d}_{m:05d}.txt",
                         f"t-design t={t_deg} m={m}", args.out,
                         check_degree=t_deg)

    if args.me:
        print(f"minimal-energy m={args.me}")
        pts = generate_minimal_energy(args.me)
        _verify_and_save(pts, f"me_{args.me:05d}.txt",
                         f"minimal Coulomb energy m={args.me}", args.out)

    if args.fekete:
        print(f"Fekete m={args.fekete}")
        t_same = int(round(math.sqrt(args.fekete))) - 1
        design_file = args.out / f"td{t_same:03d}_{args.fekete:05d}.txt"
        init = None
        if design_file.exists():
            from sphsolve.pointsets import load_pointset
            init = load_pointset(design_file).points.copy()
            print(f"    init from {design_file.name}")
        pts = generate_fekete(args.fekete, init=init)
        _verify_and_save(pts, f"fk_{args.fekete:05d}.txt",
                         f"maximal determinant m={args.fekete}", args.out)


if __name__ == "__main__":
    main()
