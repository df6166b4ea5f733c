"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own linear algebra: the inverse is
assembled from cofactors, the smallest eigenvalue comes from closed-form
roots of the characteristic polynomial (sizes up to 3 only), and the
singularity verdict from a plain SVD.  The switching schedule, step-count and
input-read oracles work one entry at a time, in plain Python, and
reachability comes from a boolean transitive closure.  `reference_rk4` steps
the observer with the per-component derivative and the gain law written out
inline, sharing no code with the library's kernel or gain rows.  Two trace
readers: the whole-file reader `read_trace` used before it streamed rows,
kept verbatim, and a per-line reference of the reader's specification that
parses numbers with float() rather than numpy.
"""

import math
import re

import numpy as np

from ptobs.errors import MalformedTrace
from ptobs.sim import TraceData
from ptobs.trace import header_columns


def det3(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    if n == 2:
        return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return (
        A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
        - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
        + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
    )


def cofactor_inverse(A):
    """Inverse via the adjugate, for matrices up to 3x3."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    d = det3(A)
    if n == 1:
        return np.array([[1.0 / d]])
    if n == 2:
        return np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / d
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * det3(minor)
    return cof.T / d


def char_poly_min_eig(M):
    """Smallest eigenvalue from the characteristic polynomial (n <= 3).

    A symmetric matrix has an all-real spectrum, so the smallest root of the
    cubic lies on the stretch where the polynomial rises monotonically from
    -inf to its left local maximum; bisection on that stretch is exact to
    rounding and, unlike the closed trigonometric formula, does not lose
    accuracy on (near-)repeated roots.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0])
    if n == 2:
        half_diff = 0.5 * (M[0, 0] - M[1, 1])
        disc = np.hypot(half_diff, 0.5 * (M[0, 1] + M[1, 0]))
        return float(0.5 * (M[0, 0] + M[1, 1]) - disc)
    tr = M[0, 0] + M[1, 1] + M[2, 2]
    c2 = (
        det3(M[np.ix_([0, 1], [0, 1])])
        + det3(M[np.ix_([0, 2], [0, 2])])
        + det3(M[np.ix_([1, 2], [1, 2])])
    )
    d = det3(M)

    def p(x):  # characteristic polynomial, leading coefficient +1
        return ((x - tr) * x + c2) * x - d

    # critical points of p are the roots of 3x^2 - 2 tr x + c2
    crit_disc = tr * tr - 3.0 * c2
    if crit_disc <= 0.0:
        return float(tr / 3.0)  # triple eigenvalue
    x1 = (tr - np.sqrt(crit_disc)) / 3.0  # left local maximum
    if p(x1) <= 0.0:
        return float(x1)  # double root at the critical point (within rounding)
    lo = min(M[i, i] - sum(abs(M[i, j]) for j in range(3) if j != i) for i in range(3)) - 1.0
    hi = x1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if p(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def componentwise_psi(topo, estimates, x0):
    """Local error from the neighbor-sum definition, follower by follower."""
    N = topo.follower_count
    n = len(x0)
    psi = np.zeros((N, n))
    for i in range(N):
        for k in range(n):
            acc = topo.pinning[i] * (estimates[i, k] - x0[k])
            for j in range(N):
                acc += topo.adjacency[i, j] * (estimates[i, k] - estimates[j, k])
            psi[i, k] = acc
    return psi


def componentwise_dpto(topo, g, sigma, estimates, x0, smoothing=None):
    """Observer derivative from the per-component formula, follower by follower.

    xhat_ik' = xhat_i,k+1 - g_k psi_k[i] below the top stage and
    -sigma sgn(psi_n[i]) - g_n psi_n[i] at it, with g the stage gains and sgn
    the hard sign (0 at 0) or psi / (|psi| + smoothing).
    """
    psi = componentwise_psi(topo, estimates, x0)
    N, n = psi.shape
    out = np.zeros((N, n))
    for i in range(N):
        for k in range(n - 1):
            out[i, k] = estimates[i, k + 1] - g[k] * psi[i, k]
        p = psi[i, n - 1]
        if smoothing is None:
            sgn = 1.0 if p > 0.0 else -1.0 if p < 0.0 else 0.0
        else:
            sgn = p / (abs(p) + smoothing)
        out[i, n - 1] = -sigma * sgn - g[n - 1] * p
    return out


def reference_rk4(grid, topologies, leader, gains, sched, guard, estimates, smoothing=None):
    """Classical rk4 over a given step grid, one follower and stage at a time.

    Step i runs grid[i] -> grid[i + 1] under topologies[i].  The derivative is
    componentwise_dpto's; stage k's gain is alpha + beta h / max(end - t, guard)
    on its window [start, end) (h the schedule's exponent) and alpha elsewhere,
    the windows laid out from t0 top stage first; the leader input f0(t) is
    called at every rk4 stage.  Returns the leader states (points, n) and the
    estimates (points, N, n) at every grid point.
    """
    n = len(sched.stage_durations)
    windows = [None] * n  # windows[k - 1] = (start, end) of stage k
    start = sched.t0
    for k in range(n, 0, -1):
        end = start + sched.stage_durations[k - 1]
        windows[k - 1] = (start, end)
        start = end

    def f(t, x, e, topo):
        g = [gains.alpha + gains.beta * sched.exponent / max(b - t, guard) if a <= t < b else gains.alpha
             for a, b in windows]
        dx = np.array([*x[1:], float(leader.input_fn(t))])
        return dx, componentwise_dpto(topo, g, gains.sigma, e, x, smoothing)

    x = np.array(leader.initial_state, dtype=float)
    e = np.array(estimates, dtype=float)
    xs, es = [x], [e]
    for t, tn, topo in zip(grid, grid[1:], topologies):
        h = tn - t
        k1 = f(t, x, e, topo)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1[0], e + 0.5 * h * k1[1], topo)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2[0], e + 0.5 * h * k2[1], topo)
        k4 = f(tn, x + h * k3[0], e + h * k3[1], topo)
        x = x + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        e = e + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        xs.append(x)
        es.append(e)
    return np.array(xs), np.array(es)


def random_spanning_topology(rng, max_followers=6):
    """Random digraph guaranteed to have a leader-rooted spanning tree.

    Grows a random tree (each follower attaches to the leader or an earlier
    follower), then sprinkles extra edges.  Import stays local so this module
    is usable before the package is importable in doc tooling.
    """
    from ptobs import DirectedTopology

    N = int(rng.integers(1, max_followers + 1))
    adjacency = np.zeros((N, N))
    pinning = np.zeros(N)
    order = rng.permutation(N)
    for idx, i in enumerate(order):
        parent = int(rng.integers(-1, idx))  # -1 = leader
        w = float(rng.uniform(0.2, 2.0))
        if parent < 0:
            pinning[i] = w
        else:
            adjacency[i, order[parent]] = w
    for i in range(N):
        for j in range(N):
            if i != j and rng.uniform() < 0.25:
                adjacency[i, j] = float(rng.uniform(0.2, 2.0))
    if pinning.max() == 0.0:
        pinning[order[0]] = 1.0
    return DirectedTopology(adjacency=adjacency, pinning=pinning)


def svd_singular_verdict(L0):
    """(s, singular) for a follower Laplacian: its singular values from a
    plain SVD, largest first, and whether the smallest is at most 1e-12 times
    ||L0^T||_inf, the largest column sum of |L0|."""
    s = np.linalg.svd(L0, compute_uv=False)
    return s, bool(s[-1] <= 1e-12 * np.abs(L0).sum(axis=0).max())


def leader_reaches_all(adjacency, pinning, eps):
    """Whether the leader reaches every follower along edges heavier than eps.

    Warshall's boolean transitive closure over node 0 (the leader) and nodes
    1..N (the followers), where a[i, j] is the edge j -> i and b[i] the edge
    leader -> i.  Plain lists, O(N^3).
    """
    a = np.asarray(adjacency, dtype=float).tolist()
    b = np.asarray(pinning, dtype=float).tolist()
    n = len(b) + 1
    reach = [[False] * n for _ in range(n)]  # reach[u][v]: a path u -> v
    for i in range(1, n):
        reach[0][i] = b[i - 1] > eps
        for j in range(1, n):
            reach[j][i] = a[i - 1][j - 1] > eps
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                reach[u] = [x or y for x, y in zip(reach[u], reach[k])]
    return all(reach[0][1:])


def segment_steps(e1, e2, dt):
    """Step count of the segment [e1, e2]: round(span / dt) when that many
    steps of dt land within 1e-9 dt of e2, else one more than the whole dt
    that fit (the last step is shortened).  Scalar, one segment at a time."""
    span = e2 - e1
    m = int(round(span / dt))
    if m >= 1 and abs(e1 + m * dt - e2) <= 1e-9 * dt:
        return m
    return int(np.floor(span / dt)) + 1


def input_reads(grid, method):
    """Every leader-input read of a step plan in step order, as (step, time):
    rk4 step i reads t, t + h/2 and t + h, euler step i reads t (h = the
    next point - t).  Scalar, one step at a time."""
    reads = []
    for i, (t, tn) in enumerate(zip(grid, grid[1:])):
        reads += [(i, t), (i, t + 0.5 * (tn - t)), (i, tn)] if method == "rk4" else [(i, t)]
    return reads


def periodic_schedule(t0, t_end, period, cycle):
    """(t, index) pairs of a periodic switching signal, one entry at a time:
    t0 + i * period for every i that stays below t_end, cycling the indices."""
    pairs = []
    t = t0
    while t < t_end:
        pairs.append((t, cycle[len(pairs) % len(cycle)]))
        t = t0 + len(pairs) * period
    return pairs


def dedup_schedule(pairs):
    """The pairs without the entries that keep the index before them."""
    out = pairs[:1]
    for t, j in pairs[1:]:
        if j != out[-1][1]:
            out.append((t, j))
    return out


def read_trace_whole_file(path: str) -> TraceData:
    """Parse a trace CSV, recovering N and n from the header.  (The whole-file
    reader, verbatim: str.splitlines() lines, non-ASCII raises
    UnicodeDecodeError.)

    Raises MalformedTrace for an unreadable file, an unexpected header, a row
    of the wrong width, non-numeric fields, or a file with no data rows.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise MalformedTrace(f"cannot read trace: {exc}") from None
    if not lines:
        raise MalformedTrace("empty file")
    header = lines[0].split(",")
    n = sum(1 for c in header if c.startswith("x0_"))
    nxt = sum(1 for c in header if c.startswith("xt_"))
    if n < 1 or nxt < 1 or nxt % n != 0:
        raise MalformedTrace(f"unrecognized header: {lines[0][:80]}")
    N = nxt // n
    if header != header_columns(N, n):
        raise MalformedTrace("header does not match the expected column layout")
    if not any(lines[1:]):
        raise MalformedTrace("trace has a header but no data rows")
    # One C-level parse.  numpy's row numbers are not file lines, so a file it
    # rejects is parsed per field again, which names the first bad line.
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(header):
                raise MalformedTrace(
                    f"line {lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise MalformedTrace(f"line {lineno}: non-numeric field") from None
        data = np.array(rows)
    shapes = [(), (n,), (N, n), (N, n), (n,), ()]  # per sample, in TraceData field order
    parts = np.split(data, np.cumsum([math.prod(s) for s in shapes[:-1]]), axis=1)
    return TraceData(*(p.reshape(len(data), *s) for p, s in zip(parts, shapes)))


def read_trace_per_line(path: str) -> TraceData:
    """Parse a trace CSV one line at a time; the first bad line names the error.

    Lines end at LF, CRLF or CR, and a final line end starts no line.  Each
    line is checked in order: a non-ASCII byte, then the header (line 1), or
    for a non-empty data line its field count and each field as a number
    (str.strip() whitespace around a float() literal without underscores).
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MalformedTrace(f"cannot read trace: {exc}") from None
    lines = re.split(rb"\r\n|\r|\n", raw)
    if lines[-1] == b"":
        lines.pop()
    if not lines:
        raise MalformedTrace("empty file")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        for byte in line:
            if byte > 0x7F:
                raise MalformedTrace(f"line {lineno}: non-ASCII byte 0x{byte:02x}")
        fields = line.decode("ascii").split(",")
        if lineno == 1:
            header = fields
            n = sum(1 for c in header if c.startswith("x0_"))
            nxt = sum(1 for c in header if c.startswith("xt_"))
            if n < 1 or nxt < 1 or nxt % n != 0:
                raise MalformedTrace(f"unrecognized header: {line.decode('ascii')[:80]}")
            N = nxt // n
            if header != header_columns(N, n):
                raise MalformedTrace("header does not match the expected column layout")
            continue
        if line == b"":
            continue
        if len(fields) != len(header):
            raise MalformedTrace(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        try:
            if any("_" in f for f in fields):
                raise ValueError
            rows.append([float(f.strip()) for f in fields])
        except ValueError:
            raise MalformedTrace(f"line {lineno}: non-numeric field") from None
    if not rows:
        raise MalformedTrace("trace has a header but no data rows")
    data = np.array(rows)
    S = len(data)
    cut = np.cumsum([1, n, N * n, N * n, n])
    return TraceData(
        times=data[:, 0],
        leader_states=data[:, cut[0] : cut[1]],
        estimate_errors=data[:, cut[1] : cut[2]].reshape(S, N, n),
        local_errors=data[:, cut[2] : cut[3]].reshape(S, N, n),
        lyapunov=data[:, cut[3] : cut[4]],
        decay_bound=data[:, cut[4]],
    )
