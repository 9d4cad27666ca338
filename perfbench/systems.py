"""Contact-free smooth systems for the ``integrate`` workload.

They subclass simpact's model interface and have no gaps, so every step
takes the free DEL path: ``_solve_free``, ``_newton`` and its
finite-difference Jacobian. The pendulum's potential is nonlinear and
the polar particle's mass matrix depends on the configuration, so a
shortcut that only helps constant-mass, linear-force systems cannot
pass for a general gain.
"""

from __future__ import annotations

import math

import numpy as np
import simpact as sp


class _Smooth(sp.MechModel):
    """A model with no contacts."""

    def gaps(self, q):
        return np.zeros(0)

    def gap_gradients(self, q):
        return np.zeros((0, self.dim))


class Oscillator(_Smooth):
    """Mass on a linear spring: V = k q^2 / 2."""

    constant_mass = True

    def __init__(self, mass: float, stiffness: float):
        self.dim = 1
        self.m = float(mass)
        self.k = float(stiffness)
        self._mass = np.array([[self.m]])

    def mass_matrix(self, q):
        return self._mass

    def potential(self, q):
        return 0.5 * self.k * float(q[0]) ** 2

    def potential_gradient(self, q):
        return np.array([self.k * float(q[0])])

    def energy(self, q, p):
        """Energy at each sample, from the samples' discrete momenta."""
        return 0.5 * p[:, 0] ** 2 / self.m + 0.5 * self.k * q[:, 0] ** 2

    @property
    def period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.m / self.k)


class Pendulum(_Smooth):
    """Point mass on a rigid rod: V = -m g l cos(q)."""

    constant_mass = True

    def __init__(self, mass: float, length: float, gravity: float = 9.81):
        self.dim = 1
        self.m, self.l, self.g = float(mass), float(length), float(gravity)
        self._mass = np.array([[self.m * self.l**2]])

    def mass_matrix(self, q):
        return self._mass

    def potential(self, q):
        return -self.m * self.g * self.l * math.cos(float(q[0]))

    def potential_gradient(self, q):
        return np.array([self.m * self.g * self.l * math.sin(float(q[0]))])


class PolarSpring(_Smooth):
    """Planar particle on a central spring in polar coordinates.

    q = (r, phi), M(q) = diag(m, m r^2), V = k (r - r0)^2 / 2.
    """

    constant_mass = False

    def __init__(self, mass: float, stiffness: float, rest_length: float):
        self.dim = 2
        self.m, self.k, self.r0 = float(mass), float(stiffness), float(rest_length)

    def mass_matrix(self, q):
        r = float(q[0])
        return np.diag([self.m, self.m * r * r])

    def potential(self, q):
        return 0.5 * self.k * (float(q[0]) - self.r0) ** 2

    def potential_gradient(self, q):
        return np.array([self.k * (float(q[0]) - self.r0), 0.0])
