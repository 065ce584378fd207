"""Factor-graph data model and text persistence.

Pose ids are 1-based everywhere (files, measurements, APIs).  pose_table
gives the poses as an (N, 4) array whose row pid - 1 holds [x1, x2, u1, u2]
of pose pid.  One pose is the fixed anchor; the state layout of the other,
free poses is MeasurementTables' (assembly.py).

Graph file format, line based, '#' starts a comment, floats written in
full round-trip precision:

    POSE <id> <x1> <x2> <u1> <u2> [FIXED]
    ODOM <id1> <id2> <r1> <r2> <q1> <q2> <T11> <T12> <T22> <sigma> <sigma_e>
    HOME <id1> <id2> <a1> <a2> <psi1> <psi2> <sigma_h> <sigma_c>

Exactly one POSE carries the FIXED tag; T is given by its upper
triangle.  Measured angles appear only as unit orientation vectors; any
angle-to-vector conversion happens before a file is written.  A record
holds its line's fields, each shape given once (_FIELDS); the measured
distance |r| is derived where the measurement tables are built.
"""

import io
from dataclasses import dataclass

import numpy as np

from .costs import ORI, POS, _spd_inverse, first_failure
from .errors import (
    GraphFormatError,
    GraphValidationError,
    InvalidCovarianceError,
    PreconditionError,
    is_integer,
)

UNIT_TOL = 1e-9


# Each group's record fields and their shapes, in the order a rejection names a non-finite one.
_FIELDS = {
    "odometry": {"r": (2,), "q": (2,), "T": (2, 2), "sigma": (), "sigma_e": ()},
    "homing": {"alpha": (2,), "psi": (2,), "sigma_h": (), "sigma_c": ()},
}


def _copy_arrays(record, fields):
    """Replace each array field of the record by a float copy, checked to have its shape."""
    for name, shape in fields.items():
        if shape:
            a = np.array(getattr(record, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            setattr(record, name, a)


@dataclass
class Pose:
    """Planar pose: position x and orientation vector u, world frame.

    u need not be unit during optimization; the unit-length requirement
    is enforced by the solver's constraints, not by this type.
    """

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        _copy_arrays(self, {"x": (2,), "u": (2,)})

    def copy(self):
        return Pose(self.x, self.u)


@dataclass
class OdometryMeasurement:
    """Relative motion between two poses, expressed in the frame of i1.

    r is the measured translation, q the unit rotation vector, T the
    2x2 translation covariance, sigma the rotation standard deviation,
    and sigma_e the standard deviation of the traveled distance |r|.
    """

    i1: int
    i2: int
    r: np.ndarray
    q: np.ndarray
    T: np.ndarray
    sigma: float
    sigma_e: float

    def __post_init__(self):
        _copy_arrays(self, _FIELDS["odometry"])


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
        _copy_arrays(self, _FIELDS["homing"])


class FactorGraph:
    """Poses plus odometry and homing measurement lists.

    Treated as immutable after validation.  The solver never writes
    poses: it evaluates trial states from a pose table and returns its
    result through with_poses().
    """

    def __init__(self, poses, odometry=(), homing=(), fixed_id=1):
        self.poses = list(poses)
        self.odometry = list(odometry)
        self.homing = list(homing)
        self.fixed_id = fixed_id

    def __len__(self):
        return len(self.poses)

    def pose(self, pid):
        if pid not in self.pose_ids():
            raise PreconditionError(f"pose id {pid} out of range 1..{len(self)}")
        return self.poses[pid - 1]

    def pose_ids(self):
        return range(1, len(self.poses) + 1)

    def items(self):
        return ((i + 1, p) for i, p in enumerate(self.poses))

    def copy(self):
        return FactorGraph(
            [p.copy() for p in self.poses], self.odometry, self.homing, self.fixed_id
        )

    def with_fixed(self, pid):
        if pid not in self.pose_ids():
            raise GraphValidationError(f"fixed pose id {pid} out of range 1..{len(self)}")
        return FactorGraph(self.poses, self.odometry, self.homing, pid)

    def pose_table(self):
        """The poses as an (N, 4) array, row pid - 1 holding [x, u] of pose pid."""
        return np.array([[*p.x, *p.u] for p in self.poses])

    def with_poses(self, table):
        """A graph with the same measurements and anchor and the table's poses."""
        table = np.asarray(table, dtype=float)
        if table.shape != (len(self), 4):
            raise PreconditionError(f"expected a ({len(self)}, 4) pose table, got {table.shape}")
        poses = [Pose(row[POS], row[ORI]) for row in table]
        return FactorGraph(poses, self.odometry, self.homing, self.fixed_id)

    def validate(self):
        """Check every structural invariant; raises GraphValidationError.

        Returns the checked columns (odometry, homing): per group a dict from
        each record field to its values over the records, i1 and i2 as intp
        arrays, and for odometry also Tinv, the inverses of T (_spd_inverse).
        """
        n = len(self.poses)
        if n < 2:
            raise GraphValidationError(f"need at least 2 poses, got {n}")
        if not is_integer(self.fixed_id):
            raise GraphValidationError(f"fixed pose id must be an integer, got {self.fixed_id!r}")
        if not 1 <= self.fixed_id <= n:
            raise GraphValidationError(f"fixed pose id {self.fixed_id} out of range 1..{n}")
        bad = ~np.isfinite(self.pose_table()).all(axis=1)
        if bad.any():
            raise GraphValidationError(f"pose {int(bad.argmax()) + 1}: non-finite components")
        return tuple(_checked_columns(group, getattr(self, group), n) for group in _FIELDS)


def record_name(group, k, i1, i2):
    """How messages name record k (0-based) of a group, between poses i1 and i2."""
    return f"{group} record {k + 1} ({i1}->{i2})"


def _checked_columns(group, ms, n):
    """The field columns of records ms, of a graph with n poses, once they pass every check.

    A check is a column, True where a record fails it, its message and the
    columns the message formats.  A record's first failing check names it.
    """
    cols = {
        name: np.array([getattr(m, name) for m in ms], dtype=float).reshape(-1, *shape)
        for name, shape in _FIELDS[group].items()
    }
    # NaN stands for a pose index that is no integer
    ends = [(m.i1, m.i2) if is_integer(m.i1) and is_integer(m.i2) else (np.nan,) * 2 for m in ms]
    try:
        i1, i2 = np.array(ends, dtype=float).reshape(-1, 2).T
    except OverflowError:  # an integer beyond float range, out of range once clamped
        i1, i2 = np.array([[max(min(i, n + 1), 0) for i in e] for e in ends]).T
    sigmas = [name for name in cols if name.startswith("sigma")]
    with np.errstate(all="ignore"):
        checks = [
            (np.isnan(i1), "pose indices must be integers"),
            (~((1 <= i1) & (i1 <= n) & (1 <= i2) & (i2 <= n)), f"pose index out of range 1..{n}"),
            (i1 == i2, "measurement connects a pose to itself"),
        ]
        for v in ("q",) if group == "odometry" else ("alpha", "psi"):
            norm = np.hypot(*cols[v].T)
            message = f"{v} must be a unit vector, |{v}| = {{!r}}"
            checks.append((~(np.abs(norm - 1.0) <= UNIT_TOL), message, norm))
        if group == "odometry":
            try:
                cols["Tinv"] = _spd_inverse(cols["T"])
            except InvalidCovarianceError as exc:  # marks the first record it fails
                checks.append((np.arange(len(ms)) == exc.index, str(exc)))
        positive = np.logical_and(*[(0.0 < cols[s]) & (cols[s] < np.inf) for s in sigmas])
        checks.append((~positive, " and ".join(sigmas) + " must be positive"))
        if group == "odometry":  # the distance term's measured |r|
            norm = np.hypot(*cols["r"].T)
            checks.append((~(norm < np.inf), "r must have a finite norm, |r| = {!r}", norm))
    hit = first_failure([check[0] for check in checks])
    if hit is None:
        cols["i1"], cols["i2"] = i1.astype(np.intp), i2.astype(np.intp)
        return cols
    k, j = hit
    m, (_, message, *values) = ms[k], checks[j]
    where = record_name(group, k, m.i1, m.i2)
    if j >= 3:  # every non-finite field fails such a check: name the field instead
        for name in _FIELDS[group]:
            if not np.all(np.isfinite(getattr(m, name))):
                raise GraphValidationError(f"{where}: non-finite {name}: {getattr(m, name)!r}")
    raise GraphValidationError(f"{where}: " + message.format(*(float(x[k]) for x in values)))


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
