"""Factor-graph data model and text persistence.

Pose ids are 1-based everywhere (files, measurements, APIs).  A graph owns
its one copy of the poses, its pose table: an (N, 4) float array whose row
pid - 1 holds [x1, x2, u1, u2] of pose pid, read as Pose views of its rows.
One pose is the fixed anchor; the state layout of the other, free poses is
MeasurementTables' (assembly.py).

A graph stores each measurement group as columns (Records), its one
copy of the measurements: per record field a read-only float array with
a leading record axis (each field's shape given once, _FIELDS), and the
pose ids i1 and i2.  load_graph parses lines into columns, sim.simulate
hands over the arrays it computed, and validate and save_graph read the
columns; none makes a record object.  The record classes are an adapter
at the edge: a list of records is stacked once, another graph's Records
are shared, and graph.odometry[k] builds record k on first access, a
frozen value with read-only arrays.

Graph file format, line based, '#' starts a comment, floats written in
full round-trip precision:

    POSE <id> <x1> <x2> <u1> <u2> [FIXED]
    ODOM <id1> <id2> <r1> <r2> <q1> <q2> <T11> <T12> <T22> <sigma> <sigma_e>
    HOME <id1> <id2> <a1> <a2> <psi1> <psi2> <sigma_h> <sigma_c>

Exactly one POSE carries the FIXED tag; T is given by its upper
triangle.  Measured angles appear only as unit orientation vectors; any
angle-to-vector conversion happens before a file is written.  A record
holds its line's fields; the measured distance |r| is derived where the
measurement tables are built.
"""

import copy
import math
from collections.abc import Sequence
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
# Each group's file tag and, for each entry of its fields flattened in _FIELDS
# order, its position among the line's values after the pose ids (T's lower
# off-diagonal entry is its upper one).
_LINES = {
    "odometry": ("ODOM", [0, 1, 2, 3, 4, 5, 5, 6, 7, 8]),
    "homing": ("HOME", [0, 1, 2, 3, 4, 5]),
}


def _float_fields(obj, fields, frozen=False):
    """Set each field of obj to a float copy of it, checked to have the field's
    shape: read-only if frozen, and a float for a scalar field."""
    for name, shape in fields.items():
        a = np.array(getattr(obj, name), dtype=float)
        if a.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        if frozen:
            a.setflags(write=False)
        obj.__dict__[name] = a if shape else float(a)  # past a frozen class's __setattr__


@dataclass
class Pose:
    """Planar pose: position x and orientation vector u, world frame.

    u need not be unit during optimization; the unit-length requirement
    is enforced by the solver's constraints, not by this type.
    """

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        _float_fields(self, {"x": (2,), "u": (2,)})

    @classmethod
    def view(cls, row):
        """The pose whose x and u are views of a pose table row."""
        pose = object.__new__(cls)  # no __post_init__: it would copy
        pose.x, pose.u = row[POS], row[ORI]
        return pose


@dataclass(frozen=True)
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
        _float_fields(self, _FIELDS["odometry"], frozen=True)


@dataclass(frozen=True)
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
        _float_fields(self, _FIELDS["homing"], frozen=True)


_RECORD = {"odometry": OdometryMeasurement, "homing": HomingMeasurement}
_IDS = (int(np.iinfo(np.intp).min), int(np.iinfo(np.intp).max))


class Records(Sequence):
    """One group's measurements, stored as columns and read as records.

    columns maps each field of _FIELDS[group] to a (K, *shape) float
    array, and i1 and i2 to (K,) intp arrays, each C-contiguous and
    read-only.  given maps the index of each record whose pose ids are
    no integers that intp holds to its ids as given; its i1 and i2 hold
    0, a pose id out of range in every graph.  Record k is built on its
    first access, once for every Records sharing these columns.
    """

    def __init__(self, group, columns, given=None):
        self.group, self.given, self._built = group, given or {}, {}
        self.columns = {}
        for name, a in columns.items():
            a = np.ascontiguousarray(a, dtype=np.intp if name in ("i1", "i2") else float)
            a.setflags(write=False)
            self.columns[name] = a

    @classmethod
    def of(cls, group, records):
        """group's Records of another graph's Records, sharing its columns and
        built records, or of a list of record objects, stacked once."""
        if isinstance(records, Records):
            if records.group != group:
                raise PreconditionError(f"expected {group} records, got {records.group} records")
            return copy.copy(records)
        records = list(records)
        columns = {
            name: np.array([getattr(m, name) for m in records], dtype=float).reshape(-1, *shape)
            for name, shape in _FIELDS[group].items()
        }
        return cls(group, *_with_ids(columns, [(m.i1, m.i2) for m in records]))

    def __len__(self):
        return len(self.columns["i1"])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self))[k]
        if k not in self._built:
            fields = {name: self.columns[name][k] for name in _FIELDS[self.group]}
            self._built[k] = _RECORD[self.group](*self.ends(k), **fields)
        return self._built[k]

    def ends(self, k):
        """The pose ids (i1, i2) of record k, as given."""
        if k in self.given:
            return self.given[k]
        return int(self.columns["i1"][k]), int(self.columns["i2"][k])


def _with_ids(columns, ends):
    """columns with i1 and i2 of the pose id pairs ends, and Records.given of ends."""
    lo, hi = _IDS
    given = {
        k: (a, b)
        for k, (a, b) in enumerate(ends)
        if not (is_integer(a) and is_integer(b) and lo <= a <= hi and lo <= b <= hi)
    }
    ids = np.array([(0, 0) if k in given else e for k, e in enumerate(ends)], dtype=np.intp)
    ids = ids.reshape(-1, 2)
    return {**columns, "i1": ids[:, 0], "i2": ids[:, 1]}, given


class FactorGraph:
    """The pose table plus odometry and homing measurements (Records).

    poses may be an (N, 4) pose table, copied, or Pose objects, stacked.
    pose(pid), poses and items() give Pose views of the table's rows: a
    write through one lands in this graph's table alone.  odometry and
    homing may be record lists, stacked once, or another graph's
    Records, whose columns the new graph shares.  The solver never
    writes poses: it returns its result through with_poses().
    """

    def __init__(self, poses, odometry=(), homing=(), fixed_id=1):
        if not isinstance(poses, np.ndarray):  # Pose objects
            poses = np.array([(p.x, p.u) for p in poses], dtype=float).reshape(-1, 4)
        self.table = np.array(poses, dtype=float)
        if self.table.ndim != 2 or self.table.shape[1] != 4:
            raise PreconditionError(f"expected an (N, 4) pose table, got {self.table.shape}")
        self.odometry = Records.of("odometry", odometry)
        self.homing = Records.of("homing", homing)
        self.fixed_id = fixed_id

    def __len__(self):
        return len(self.table)

    def pose(self, pid):
        if not (is_integer(pid) and 1 <= pid <= len(self)):
            raise PreconditionError(f"pose id {pid!r} out of range 1..{len(self)}")
        return Pose.view(self.table[pid - 1])

    @property
    def poses(self):
        return [Pose.view(row) for row in self.table]

    def pose_ids(self):
        return range(1, len(self) + 1)

    def items(self):
        return zip(self.pose_ids(), self.poses)

    def copy(self):
        return FactorGraph(self.table, self.odometry, self.homing, self.fixed_id)

    def with_fixed(self, pid):
        if pid not in self.pose_ids():
            raise GraphValidationError(f"fixed pose id {pid} out of range 1..{len(self)}")
        return FactorGraph(self.table, self.odometry, self.homing, pid)

    def pose_table(self):
        """A copy of the pose table."""
        return self.table.copy()

    def with_poses(self, table):
        """A graph with the same measurements and anchor and the table's poses."""
        table = np.asarray(table, dtype=float)
        if table.shape != (len(self), 4):
            raise PreconditionError(f"expected a ({len(self)}, 4) pose table, got {table.shape}")
        return FactorGraph(table, self.odometry, self.homing, self.fixed_id)

    def validate(self):
        """Check every structural invariant; raises GraphValidationError.

        Returns the checked columns (odometry, homing): per group a dict
        from each record field, i1 and i2 to the stored column, and for
        odometry also Tinv, the inverses of T (_spd_inverse).
        """
        n = len(self)
        if n < 2:
            raise GraphValidationError(f"need at least 2 poses, got {n}")
        if not is_integer(self.fixed_id):
            raise GraphValidationError(f"fixed pose id must be an integer, got {self.fixed_id!r}")
        if not 1 <= self.fixed_id <= n:
            raise GraphValidationError(f"fixed pose id {self.fixed_id} out of range 1..{n}")
        bad = ~np.isfinite(self.table).all(axis=1)
        if bad.any():
            raise GraphValidationError(f"pose {int(bad.argmax()) + 1}: non-finite components")
        return tuple(_checked_columns(records, n) for records in (self.odometry, self.homing))

    def validate_ids(self):
        """validate's checks of the records' pose ids alone; returns their columns."""
        return tuple(_checked_columns(r, len(self), True) for r in (self.odometry, self.homing))


def record_name(group, k, i1, i2):
    """How messages name record k (0-based) of a group, between poses i1 and i2."""
    return f"{group} record {k + 1} ({i1}->{i2})"


def _checked_columns(records, n, ids_only=False):
    """The columns of records, of a graph with n poses, once they pass every
    check, or the checks of their pose ids alone.

    A check is a column, True where a record fails it, its message and the
    columns the message formats.  A record's first failing check names it.
    """
    group, cols = records.group, dict(records.columns)
    i1, i2 = cols["i1"], cols["i2"]
    integer = np.ones(len(records), dtype=bool)
    for k, (a, b) in records.given.items():
        integer[k] = is_integer(a) and is_integer(b)
    checks = [
        (~integer, "pose indices must be integers"),
        (~((1 <= i1) & (i1 <= n) & (1 <= i2) & (i2 <= n)), f"pose index out of range 1..{n}"),
        (i1 == i2, "measurement connects a pose to itself"),
    ]
    if not ids_only:
        checks += _field_checks(group, cols)
    hit = first_failure([check[0] for check in checks])
    if hit is None:
        return cols
    k, j = hit
    _, message, *values = checks[j]
    where = record_name(group, k, *records.ends(k))
    if j >= 3:  # every non-finite field fails such a check: name the field instead
        for name in _FIELDS[group]:
            v = cols[name][k]
            if not np.isfinite(v).all():
                v = v if v.ndim else float(v)
                raise GraphValidationError(f"{where}: non-finite {name}: {v!r}")
    raise GraphValidationError(f"{where}: " + message.format(*(float(x[k]) for x in values)))


def _field_checks(group, cols):
    """The checks of a group's columns other than the pose ids, in check
    order; cols gains Tinv, the inverses of T, once T passes."""
    checks = []
    sigmas = [name for name in cols if name.startswith("sigma")]
    with np.errstate(all="ignore"):
        for v in ("q",) if group == "odometry" else ("alpha", "psi"):
            norm = np.hypot(*cols[v].T)
            message = f"{v} must be a unit vector, |{v}| = {{!r}}"
            checks.append((~(np.abs(norm - 1.0) <= UNIT_TOL), message, norm))
        if group == "odometry":
            try:
                cols["Tinv"] = _spd_inverse(cols["T"])
            except InvalidCovarianceError as exc:  # marks the first record it fails
                checks.append((np.arange(len(cols["T"])) == exc.index, str(exc)))
        positive = np.logical_and(*[(0.0 < cols[s]) & (cols[s] < np.inf) for s in sigmas])
        checks.append((~positive, " and ".join(sigmas) + " must be positive"))
        if group == "odometry":  # the distance term's measured |r|
            norm = np.hypot(*cols["r"].T)
            checks.append((~(norm < np.inf), "r must have a finite norm, |r| = {!r}", norm))
    return checks


# ---------------------------------------------------------------------------
# text format


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
    # per measurement tag its group and field count; per group the values
    # after the pose ids of all its lines, in one list, and the id pairs
    tags = {tag: (group, 3 + max(at)) for group, (tag, at) in _LINES.items()}
    values = {group: [] for group in _LINES}
    ends = {group: [] for group in _LINES}
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
                poses[pid] = [float(a) for a in args[1:]]
                if fixed:
                    fixed_ids.append(pid)
            elif tag in tags:
                group, width = tags[tag]
                if len(args) != width:
                    raise ValueError(f"{tag} needs {width} fields, got {len(args)}")
                values[group].extend(map(float, args[2:]))
                ends[group].append((int(args[0]), int(args[1])))
            else:
                raise ValueError(f"unknown record tag {tag!r}")
        except (ValueError, IndexError) as exc:
            raise GraphFormatError(f"line {ln}: {exc}") from exc

    if sorted(poses) != list(range(1, len(poses) + 1)):
        raise GraphFormatError(f"pose ids must be contiguous 1..N, got {sorted(poses)}")
    if len(fixed_ids) != 1:
        raise GraphFormatError(f"exactly one POSE must carry FIXED, found {len(fixed_ids)}")

    graph = FactorGraph(
        np.array([poses[pid] for pid in sorted(poses)]),
        *(_parsed(group, values[group], ends[group]) for group in _LINES),
        fixed_ids[0],
    )
    graph.validate()
    return graph


def _parsed(group, values, ends):
    """The Records of a group's lines: their values after the pose ids, and the ids."""
    at = _LINES[group][1]
    flat = np.array(values, dtype=float).reshape(len(ends), max(at) + 1)[:, at]
    columns, start = {}, 0
    for name, shape in _FIELDS[group].items():
        size = math.prod(shape)
        columns[name] = flat[:, start : start + size].reshape(-1, *shape)
        start += size
    return Records(group, *_with_ids(columns, ends))


def _lines(records):
    """The file lines of a group's records."""
    (tag, at), cols = _LINES[records.group], records.columns
    fields = _FIELDS[records.group].items()
    flat = np.hstack([cols[name].reshape(len(records), math.prod(shape)) for name, shape in fields])
    values = flat[:, [at.index(j) for j in range(max(at) + 1)]].tolist()
    ends = list(zip(cols["i1"].tolist(), cols["i2"].tolist()))
    for k, pair in records.given.items():
        ends[k] = pair
    return [f"{tag} {a} {b} " + " ".join(map(repr, v)) + "\n" for (a, b), v in zip(ends, values)]


def save_graph(graph, dest=None):
    """Write a graph in the text format; returns the text if dest is None."""
    lines = [
        f"POSE {pid} {x1!r} {x2!r} {u1!r} {u2!r}{' FIXED' if pid == graph.fixed_id else ''}\n"
        for pid, (x1, x2, u1, u2) in enumerate(graph.table.tolist(), start=1)
    ]
    lines += _lines(graph.odometry) + _lines(graph.homing)
    return write_text("".join(lines), dest)
