"""Factor-graph data model, state-vector layout, and text persistence.

Pose ids are 1-based everywhere (files, measurements, APIs).  One pose
is the fixed anchor and never enters the optimization state; the flat
state stacks the remaining poses in ascending id order as per-pose
blocks [x (2), u (2), lambda (1)], total length 5 (N - 1).

Graph file format, line based, '#' starts a comment, floats written in
full round-trip precision:

    POSE <id> <x1> <x2> <u1> <u2> [FIXED]
    ODOM <id1> <id2> <r1> <r2> <q1> <q2> <T11> <T12> <T22> <sigma> <sigma_e>
    HOME <id1> <id2> <a1> <a2> <psi1> <psi2> <sigma_h> <sigma_c>

Exactly one POSE carries the FIXED tag; T is given by its upper
triangle.  Measured angles appear only as unit orientation vectors; any
angle-to-vector conversion happens before a file is written.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .costs import Pose, _spd_inverse
from .errors import (
    GraphFormatError,
    GraphValidationError,
    InvalidCovarianceError,
    StateLayoutError,
)

UNIT_TOL = 1e-9


def _vec2(a):
    v = np.asarray(a, dtype=float).copy()
    if v.shape != (2,):
        raise ValueError("expected a 2-vector")
    return v


@dataclass
class OdometryMeasurement:
    """Relative motion between two poses, expressed in the frame of i1.

    r is the measured translation, q the unit rotation vector, T the
    2x2 translation covariance, sigma the rotation standard deviation,
    sigma_e the distance standard deviation, and rho the measured
    distance (always |r|; stored for transparency).
    """

    i1: int
    i2: int
    r: np.ndarray
    q: np.ndarray
    T: np.ndarray
    sigma: float
    sigma_e: float
    rho: float = None

    def __post_init__(self):
        self.r = _vec2(self.r)
        self.q = _vec2(self.q)
        self.T = np.asarray(self.T, dtype=float).copy()
        if self.rho is None:
            self.rho = float(np.hypot(self.r[0], self.r[1]))


@dataclass
class HomingMeasurement:
    """Visual homing between the current pose i1 and an earlier pose i2.

    alpha is the unit home vector (direction from i1 toward i2 in the
    frame of i1), psi the unit compass vector (relative orientation),
    with standard deviations sigma_h and sigma_c.
    """

    i1: int
    i2: int
    alpha: np.ndarray
    psi: np.ndarray
    sigma_h: float
    sigma_c: float

    def __post_init__(self):
        self.alpha = _vec2(self.alpha)
        self.psi = _vec2(self.psi)


class FactorGraph:
    """Poses plus odometry and homing measurement lists.

    Treated as immutable after validation; the solver works on private
    copies obtained through copy().
    """

    def __init__(self, poses, odometry=(), homing=(), fixed_id=1):
        self.poses = list(poses)
        self.odometry = list(odometry)
        self.homing = list(homing)
        self.fixed_id = int(fixed_id)

    def __len__(self):
        return len(self.poses)

    def pose(self, pid):
        return self.poses[pid - 1]

    def pose_ids(self):
        return range(1, len(self.poses) + 1)

    def items(self):
        return ((i + 1, p) for i, p in enumerate(self.poses))

    def free_ids(self):
        return [pid for pid in self.pose_ids() if pid != self.fixed_id]

    def copy(self):
        return FactorGraph(
            [p.copy() for p in self.poses], self.odometry, self.homing, self.fixed_id
        )

    def with_fixed(self, pid):
        if pid not in self.pose_ids():
            raise GraphValidationError(f"fixed pose id {pid} out of range 1..{len(self)}")
        return FactorGraph(self.poses, self.odometry, self.homing, pid)

    def validate(self):
        """Check every structural invariant; raises GraphValidationError."""
        n = len(self.poses)
        if n < 2:
            raise GraphValidationError(f"need at least 2 poses, got {n}")
        if self.fixed_id not in self.pose_ids():
            raise GraphValidationError(f"fixed pose id {self.fixed_id} out of range 1..{n}")
        for pid, pose in self.items():
            if not (np.all(np.isfinite(pose.x)) and np.all(np.isfinite(pose.u))):
                raise GraphValidationError(f"pose {pid}: non-finite components")
        for k, m in enumerate(self.odometry):
            where = f"odometry record {k + 1} ({m.i1}->{m.i2})"
            self._check_indices(where, m.i1, m.i2, n)
            self._check_unit(where, "q", m.q)
            try:
                _spd_inverse(m.T)
            except InvalidCovarianceError as exc:
                raise GraphValidationError(f"{where}: {exc}") from exc
            if not (m.sigma > 0.0 and m.sigma_e > 0.0):
                raise GraphValidationError(f"{where}: sigma and sigma_e must be positive")
            if abs(m.rho - float(np.hypot(m.r[0], m.r[1]))) > UNIT_TOL:
                raise GraphValidationError(f"{where}: rho must equal |r|")
        for k, m in enumerate(self.homing):
            where = f"homing record {k + 1} ({m.i1}->{m.i2})"
            self._check_indices(where, m.i1, m.i2, n)
            self._check_unit(where, "alpha", m.alpha)
            self._check_unit(where, "psi", m.psi)
            if not (m.sigma_h > 0.0 and m.sigma_c > 0.0):
                raise GraphValidationError(f"{where}: sigma_h and sigma_c must be positive")

    @staticmethod
    def _check_indices(where, i1, i2, n):
        if not (1 <= i1 <= n and 1 <= i2 <= n):
            raise GraphValidationError(f"{where}: pose index out of range 1..{n}")
        if i1 == i2:
            raise GraphValidationError(f"{where}: measurement connects a pose to itself")

    @staticmethod
    def _check_unit(where, name, v):
        if abs(float(np.hypot(v[0], v[1])) - 1.0) > UNIT_TOL:
            raise GraphValidationError(
                f"{where}: {name} must be a unit vector, |{name}| = "
                f"{float(np.hypot(v[0], v[1]))!r}"
            )


class StateLayout:
    """Offsets of the free-pose blocks [x, u, lambda] in the flat state."""

    def __init__(self, graph):
        self.free = list(graph.free_ids())
        self._rank = {pid: k for k, pid in enumerate(self.free)}
        self.dim = 5 * len(self.free)

    def rank(self, pid):
        return self._rank[pid]

    def offset(self, pid):
        return 5 * self._rank[pid]

    def x_slice(self, pid):
        off = self.offset(pid)
        return slice(off, off + 2)

    def u_slice(self, pid):
        off = self.offset(pid)
        return slice(off + 2, off + 4)

    def lam_index(self, pid):
        return self.offset(pid) + 4


def pack_state(graph, lambdas=None):
    """Flatten the free poses (and multipliers) into the state vector."""
    layout = StateLayout(graph)
    if lambdas is None:
        lambdas = np.zeros(len(layout.free))
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != (len(layout.free),):
        raise StateLayoutError(
            f"expected {len(layout.free)} multipliers, got shape {lambdas.shape}"
        )
    vec = np.empty(layout.dim)
    for k, pid in enumerate(layout.free):
        pose = graph.pose(pid)
        vec[layout.x_slice(pid)] = pose.x
        vec[layout.u_slice(pid)] = pose.u
        vec[layout.lam_index(pid)] = lambdas[k]
    return vec


def apply_state(vec, graph):
    """Write a flat state vector into the graph's free poses, in place.

    Intended for the solver's private graph copies.  The fixed pose is
    never touched.  Returns the multipliers in layout order.
    """
    layout = StateLayout(graph)
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (layout.dim,):
        raise StateLayoutError(f"expected state of length {layout.dim}, got {vec.shape}")
    lambdas = np.empty(len(layout.free))
    for k, pid in enumerate(layout.free):
        pose = graph.pose(pid)
        pose.x[:] = vec[layout.x_slice(pid)]
        pose.u[:] = vec[layout.u_slice(pid)]
        lambdas[k] = vec[layout.lam_index(pid)]
    return lambdas


# ---------------------------------------------------------------------------
# text format


def _fmt(x):
    return repr(float(x))


def write_text(text, dest=None):
    """Return text if dest is None, else write it to a stream or a path."""
    if dest is None:
        return text
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    return None


def load_graph(source):
    """Parse a graph file; source is a path or a readable text stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    poses = {}
    fixed_ids = []
    odometry = []
    homing = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        tag, args = tokens[0], tokens[1:]
        try:
            if tag == "POSE":
                fixed = bool(args) and args[-1] == "FIXED"
                if fixed:
                    args = args[:-1]
                if len(args) != 5:
                    raise ValueError(f"POSE needs 5 fields, got {len(args)}")
                pid = int(args[0])
                if pid in poses:
                    raise ValueError(f"duplicate pose id {pid}")
                poses[pid] = Pose(
                    [float(args[1]), float(args[2])], [float(args[3]), float(args[4])]
                )
                if fixed:
                    fixed_ids.append(pid)
            elif tag == "ODOM":
                if len(args) != 11:
                    raise ValueError(f"ODOM needs 11 fields, got {len(args)}")
                v = [float(a) for a in args[2:]]
                odometry.append(
                    OdometryMeasurement(
                        i1=int(args[0]),
                        i2=int(args[1]),
                        r=v[0:2],
                        q=v[2:4],
                        T=[[v[4], v[5]], [v[5], v[6]]],
                        sigma=v[7],
                        sigma_e=v[8],
                    )
                )
            elif tag == "HOME":
                if len(args) != 8:
                    raise ValueError(f"HOME needs 8 fields, got {len(args)}")
                v = [float(a) for a in args[2:]]
                homing.append(
                    HomingMeasurement(
                        i1=int(args[0]),
                        i2=int(args[1]),
                        alpha=v[0:2],
                        psi=v[2:4],
                        sigma_h=v[4],
                        sigma_c=v[5],
                    )
                )
            else:
                raise ValueError(f"unknown record tag {tag!r}")
        except (ValueError, IndexError) as exc:
            raise GraphFormatError(f"line {ln}: {exc}") from exc

    if sorted(poses) != list(range(1, len(poses) + 1)):
        raise GraphFormatError(f"pose ids must be contiguous 1..N, got {sorted(poses)}")
    if len(fixed_ids) != 1:
        raise GraphFormatError(f"exactly one POSE must carry FIXED, found {len(fixed_ids)}")

    graph = FactorGraph(
        [poses[pid] for pid in sorted(poses)], odometry, homing, fixed_ids[0]
    )
    graph.validate()
    return graph


def save_graph(graph, dest=None):
    """Write a graph in the text format; returns the text if dest is None."""
    buf = io.StringIO()
    for pid, pose in graph.items():
        tail = " FIXED" if pid == graph.fixed_id else ""
        buf.write(
            f"POSE {pid} {_fmt(pose.x[0])} {_fmt(pose.x[1])} "
            f"{_fmt(pose.u[0])} {_fmt(pose.u[1])}{tail}\n"
        )
    for m in graph.odometry:
        buf.write(
            f"ODOM {m.i1} {m.i2} {_fmt(m.r[0])} {_fmt(m.r[1])} "
            f"{_fmt(m.q[0])} {_fmt(m.q[1])} {_fmt(m.T[0, 0])} {_fmt(m.T[0, 1])} "
            f"{_fmt(m.T[1, 1])} {_fmt(m.sigma)} {_fmt(m.sigma_e)}\n"
        )
    for m in graph.homing:
        buf.write(
            f"HOME {m.i1} {m.i2} {_fmt(m.alpha[0])} {_fmt(m.alpha[1])} "
            f"{_fmt(m.psi[0])} {_fmt(m.psi[1])} {_fmt(m.sigma_h)} {_fmt(m.sigma_c)}\n"
        )
    return write_text(buf.getvalue(), dest)
