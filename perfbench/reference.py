"""Independent Bloch-vector reference for the benchmark's correctness checks.

Plain numpy that shares no code with ``ocpulse``.  Every step of a shaped
pulse, and every free-precession delay, is a Rodrigues SO(3) rotation of
the Bloch vector (dm/dt = w x m with w = (A s cos phi, A s sin phi, dw) for
amplitude A, RF scale s, phase phi and offset dw, all in rad/s).  A CPMG
cycle is F(tau) P F(2 tau) P F(tau) and an echo (half cycle) is
F(tau) P F(tau).  Powers of a cycle come in closed form from its axis r and
angle theta:

    R^n = cos(n theta) (I - r r^T) + r r^T + sin(n theta) [r]x

so no power is built by repeated products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
KHZ = TWO_PI * 1e3


@dataclass(frozen=True)
class Waveform:
    """Piecewise-constant pulse: amplitudes in rad/s, phases in rad, times in s."""

    dt: float
    amps: np.ndarray
    phases: np.ndarray
    pre: float = 0.0
    post: float = 0.0
    a_max: float = np.inf


def read_waveform(path) -> Waveform:
    """Parse a waveform JSON record (the format of ``ocpulse``'s data files)."""
    with open(path) as fh:
        data = json.load(fh)
    steps = data["steps"]
    return Waveform(
        dt=float(data["dt_s"]),
        amps=np.array([s["amp_rad_s"] for s in steps], dtype=float),
        phases=np.array([s["phase_rad"] for s in steps], dtype=float),
        pre=float(data.get("pre_delay_s", 0.0)),
        post=float(data.get("post_delay_s", 0.0)),
        a_max=float(data["a_max_rad_s"]),
    )


def hard_pi_y(a_max: float) -> Waveform:
    """One rectangular step at full amplitude turning pi about +y."""
    return Waveform(dt=np.pi / a_max, amps=np.array([a_max]),
                    phases=np.array([np.pi / 2]), a_max=a_max)


def read_distribution(path):
    """(offsets rad/s, rf scales, weights) of a distribution JSON record."""
    with open(path) as fh:
        pts = json.load(fh)["points"]
    offsets = np.array([p["offset_hz"] for p in pts], dtype=float) * TWO_PI
    scales = np.array([p["rf_scale"] for p in pts], dtype=float)
    weights = np.array([p["weight"] for p in pts], dtype=float)
    return offsets, scales, weights


def cross(v: np.ndarray) -> np.ndarray:
    """[v]x for vectors (..., 3), shape (..., 3, 3)."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def rodrigues(w: np.ndarray, t: float) -> np.ndarray:
    """exp(t [w]x) for rate vectors w (..., 3): rotation by |w| t about w."""
    norm = np.linalg.norm(w, axis=-1)
    k = cross(w / np.where(norm > 0.0, norm, 1.0)[..., None])
    phi = (norm * t)[..., None, None]
    return np.eye(3) + np.sin(phi) * k + (1.0 - np.cos(phi)) * (k @ k)


def free(offsets: np.ndarray, t: float) -> np.ndarray:
    w = np.zeros(offsets.shape + (3,))
    w[..., 2] = offsets
    return rodrigues(w, t)


def pulse_rotation(wf: Waveform, offsets, scales) -> np.ndarray:
    """Bloch rotation of the whole pulse, guard delays included, (P, 3, 3)."""
    offsets = np.asarray(offsets, dtype=float)
    scales = np.broadcast_to(np.asarray(scales, dtype=float), offsets.shape)
    R = free(offsets, wf.pre)
    w = np.empty(offsets.shape + (3,))
    w[..., 2] = offsets
    for a, ph in zip(wf.amps, wf.phases):
        w[..., 0] = a * scales * np.cos(ph)
        w[..., 1] = a * scales * np.sin(ph)
        R = rodrigues(w, wf.dt) @ R
    return free(offsets, wf.post) @ R


def cycle_rotation(wf, tau: float, offsets, scales) -> np.ndarray:
    """F(tau) P F(2 tau) P F(tau), (P, 3, 3)."""
    P = pulse_rotation(wf, offsets, scales)
    f1, f2 = free(np.asarray(offsets, float), tau), free(np.asarray(offsets, float), 2 * tau)
    return f1 @ P @ f2 @ P @ f1


def echo_rotation(wf, tau: float, offsets, scales) -> np.ndarray:
    """Echo-to-echo rotation F(tau) P F(tau), (P, 3, 3)."""
    P = pulse_rotation(wf, offsets, scales)
    f1 = free(np.asarray(offsets, float), tau)
    return f1 @ P @ f1


def axis_angle(R: np.ndarray):
    """Angles theta in [0, pi] (P,) and unit axes r (P, 3) of rotations R.

    sin(theta) r comes from the antisymmetric part; past pi/2 the axis is
    read from the symmetric part (1 - cos theta) r r^T instead, which stays
    well conditioned as theta -> pi.  An identity rotation gets the z axis.
    """
    a = 0.5 * np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                        R[:, 1, 0] - R[:, 0, 1]], axis=-1)
    c = 0.5 * (np.trace(R, axis1=1, axis2=2) - 1.0)
    s = np.linalg.norm(a, axis=-1)
    theta = np.arctan2(s, c)
    r = np.where(s[:, None] > 0.0, a / np.where(s > 0.0, s, 1.0)[:, None], [0.0, 0.0, 1.0])
    obtuse = c < 0.0
    if np.any(obtuse):
        B = 0.5 * (R[obtuse] + R[obtuse].swapaxes(1, 2)) - c[obtuse, None, None] * np.eye(3)
        k = np.argmax(np.diagonal(B, axis1=1, axis2=2), axis=-1)
        col = np.take_along_axis(B, k[:, None, None], axis=2)[..., 0]
        col /= np.linalg.norm(col, axis=-1, keepdims=True)
        sign = np.where(np.einsum("pi,pi->p", col, a[obtuse]) < 0.0, -1.0, 1.0)
        r[obtuse] = sign[:, None] * col
    return theta, r


def powers(theta: np.ndarray, r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """R^n for each point and each power in n, shape (len(n), P, 3, 3)."""
    rr = np.einsum("pi,pj->pij", r, r)
    nt = np.asarray(n, dtype=float)[:, None] * theta[None, :]
    return (np.cos(nt)[..., None, None] * (np.eye(3) - rr) + rr
            + np.sin(nt)[..., None, None] * cross(r))


def averaged_powers(theta, r, weights, n_max: int) -> np.ndarray:
    """sum_p w_p R_p^n for n = 1 .. n_max, shape (n_max, 3, 3).

    Summed term by term rather than through :func:`powers`, which would hold
    every power of every point (240 MB at 33,621 points and 100 cycles).
    """
    rr = np.einsum("pi,pj->pij", r, r).reshape(-1, 9)
    nt = np.arange(1, n_max + 1, dtype=float)[:, None] * theta[None, :]
    out = (np.cos(nt) * weights) @ (np.eye(3).reshape(1, 9) - rr)
    out += weights @ rr
    out += (np.sin(nt) * weights) @ cross(r).reshape(-1, 9)
    return out.reshape(n_max, 3, 3)


def fidelity(R: np.ndarray) -> np.ndarray:
    """Overlap sin^2(theta/2) r_y^2 with the ideal pi about +y, from R alone."""
    return 0.25 * (1.0 + 2.0 * R[..., 1, 1] - np.trace(R, axis1=-2, axis2=-1))


@dataclass(frozen=True)
class Channel:
    """Reference Pauli-channel summary of n = 1 .. n_max averaged cycles."""

    probs: np.ndarray      # (n_max, 4) (p_I, p_x, p_y, p_z)
    asymptotic: np.ndarray  # (4, 4), Bloch block sum_p w_p r r^T
    m_infinity: float
    t2_cycles: float
    fit_overlap: float


def pauli_probs(block: np.ndarray) -> np.ndarray:
    rx, ry, rz = block[..., 0, 0], block[..., 1, 1], block[..., 2, 2]
    return 0.25 * np.stack([1 + rx + ry + rz, 1 + rx - ry - rz,
                            1 - rx + ry - rz, 1 - rx - ry + rz], axis=-1)


def _embed(block: np.ndarray) -> np.ndarray:
    out = np.zeros(block.shape[:-2] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = block
    return out


def channel(wf, tau: float, offsets, scales, weights, n_max: int,
            tail_fraction: float = 0.25) -> Channel:
    """Averaged-cycle channels and the documented fit rules.

    Tail: the last round(tail_fraction n_max) cycles (at least one) are
    averaged into (c_i, c_x, c_y, c_z), and m_infinity = c_i + c_y - c_x - c_z.
    Decay: the first n where p_I falls to c_i + (1 - c_i)/e, interpolated
    linearly on samples anchored at p_I(0) = 1.  Overlap: the smallest over
    n of the normalized Frobenius overlap between the diagonal transfer
    matrix of the Pauli probabilities and the full transfer matrix.
    """
    theta, r = axis_angle(cycle_rotation(wf, tau, offsets, scales))
    transfer = _embed(averaged_powers(theta, r, weights, n_max))
    probs = pauli_probs(transfer[:, 1:, 1:])
    tail = max(1, int(round(tail_fraction * n_max)))
    c = probs[-tail:].mean(axis=0)
    seq = np.concatenate([[1.0], probs[:, 0]])
    target = c[0] + (1.0 - c[0]) / np.e
    below = np.nonzero(seq <= target)[0]
    if 1.0 - c[0] <= 1e-12 or below.size == 0:
        t2 = np.inf
    elif below[0] == 0:
        t2 = 0.0
    else:
        k = int(below[0])
        hi, lo = seq[k - 1], seq[k]
        t2 = (k - 1) + ((hi - target) / (hi - lo) if hi > lo else 1.0)
    diag = np.zeros_like(transfer)
    diag[:, 0, 0] = 1.0
    for i, sign in enumerate(([1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1])):
        diag[:, i + 1, i + 1] = probs @ np.array(sign, dtype=float)
    overlap = np.sum(diag * transfer, axis=(1, 2)) / (
        np.linalg.norm(diag, axis=(1, 2)) * np.linalg.norm(transfer, axis=(1, 2)))
    return Channel(
        probs=probs,
        asymptotic=_embed(np.einsum("p,pi,pj->ij", weights, r, r)),
        m_infinity=float(c[0] + c[2] - c[1] - c[3]),
        t2_cycles=float(t2),
        fit_overlap=float(overlap.min()),
    )


def echo_train(wf, tau: float, offsets, scales, n_echoes: int) -> np.ndarray:
    """Bloch vectors after echoes 1 .. n_echoes from a unit input along +y,
    shape (n_echoes, P, 3)."""
    theta, r = axis_angle(echo_rotation(wf, tau, offsets, scales))
    return powers(theta, r, np.arange(1, n_echoes + 1))[..., :, 1]
