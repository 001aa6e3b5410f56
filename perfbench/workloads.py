"""The three benchmark workloads: their inputs, op lists and checks.

Each workload builds its inputs from the seed once, in set-up, and then
hands out a fixed list of ops: ``ops(traced=False)`` for the measured
rounds, ``ops(traced=True)`` for the one traced round.  A round runs that list once, in order,
one op at a time.  Every op calls into hardy through a module attribute
looked up at call time, so the traced run's wrappers see the call.
Every op's output goes through a check written against oracles.py, not
against stored program output.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import types

import numpy as np

import oracles as orc
from oracles import expect

N = 1024
DEGREE = 24
# The largest radius r (in steps of 0.001) for which decompose_blaschke
# accepts the zeros (0, r, -ir) on a degree-24 input at N = 1024; from
# r = 0.959 on it would need a 131072-point work grid and refuses.  Fixed
# here so the op list does not change when the library's limit does.
R_MAX = 0.958


class Op:
    """One timed call: ``run`` is timed, ``check`` raises CheckFailed on
    a wrong output, ``corrupt`` (self-test only) spoils an output."""

    __slots__ = ("kind", "run", "check", "corrupt")

    def __init__(self, kind, run, check, corrupt=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.corrupt = corrupt


def random_taylor(rng: np.random.Generator, degree: int = DEGREE) -> np.ndarray:
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def blaschke_zeros(r: float):
    return (0.0, complex(r), -1j * r)


# --- verify -----------------------------------------------------------------

# thm-3.6 is left out: with OpenBLAS's default two threads its SVD fails to
# converge on some seeds (204 for one), so whether it fails would depend
# on the seed (see CHANGES.md).
LEFT_OUT_SUITES = ("thm-3.6",)
SUITE_SEEDS = 4


class VerifyWorkload:
    """Every ``hardy verify`` suite but thm-3.6, in-process.  A round runs
    each suite at SUITE_SEEDS seeds derived from the benchmark seed, which
    averages out the suites' seed-dependent sizes (thm-3.5 and thm-4.5
    draw their space dimensions from the seed)."""

    name = "verify"
    min_rounds = 1
    children = False
    # spaces_s: the suites on invariant two-layer spaces
    spaces_kinds = frozenset({"thm-3.5", "thm-4.5"})

    def __init__(self, hardy, seed: int, workdir: str):
        self.hardy = hardy
        self.vmod = sys.modules["hardy.verify"]
        self.ids = [sid for sid in self.vmod.registry_ids()
                    if sid not in LEFT_OUT_SUITES]
        self.configs = [self.vmod.RunConfig(seed=SUITE_SEEDS * seed + k)
                        for k in range(SUITE_SEEDS)]

    def warm_up(self):
        """Each suite's kernels once, on small inputs, so the first timed
        round pays no first-call costs (bytecode, FFT plans, BLAS
        buffers).  Running the suites themselves would cost a full
        round."""
        h = self.hardy
        rng = np.random.default_rng(0)
        f = h.CircleFunction.from_coeffs(
            np.concatenate([np.zeros(N // 2), random_taylor(rng),
                            np.zeros(N // 2 - DEGREE - 1)]))
        for spec in h.builtin_specs(N).values():
            h.gauge_eval(spec, f)
        h.dual_norm_estimate(h.PNorm(3.0), f, budget=8, seed=0)
        h.cesaro_convergence_profile(f, h.PNorm(2.0), 300)
        for n in range(1, 9):
            h.decompose_zn(f, n)
        h.n_inner_outer_factorize(f, 2, m_max_check=6)
        z = h.monomial(1, N)
        J = h.as_circle_function(h.BlaschkeSpec((0.3,)), N)
        h.wandering_basis(h.span_invariant([J], z, k_max=20, D=40), z)
        one = h.CircleFunction.from_samples(np.ones(N, dtype=complex))
        beta = np.array([[0.6], [0.8]], dtype=complex)
        for mult in (1, h.BlaschkeSpec((0.0, 0.3))):
            spec = h.ConstrainedSpec(inners=(one,), beta=beta, multiplier=mult)
            h.verify_constrained(h.build_constrained(spec, D=80, k_max=10), spec)

    def ops(self, traced: bool):
        """The round's 28 suite runs; the traced round runs only the
        first seed's seven, a quarter of the time."""
        def run(sid, config):
            return lambda: self.vmod.run_verification(sid, config)
        configs = self.configs[:1] if traced else self.configs
        return [Op(sid, run(sid, config), self._check)
                for config in configs for sid in self.ids]

    @staticmethod
    def _check(report):
        # The suites are property checks against thresholds; the
        # benchmark re-reads every row instead of trusting ``passed``.
        expect(report.checks, f"{report.theorem_id}: empty report")
        for c in report.checks:
            expect(np.isfinite(c.measured) and c.measured <= c.threshold,
                   f"{report.theorem_id}: {c.name} measured {c.measured} "
                   f"above threshold {c.threshold}")


# --- decompose --------------------------------------------------------------

# (kind, parameter, count) per round: 100 ops.  Sorted by cost, 45 ops of
# 1-20 ms come first, then 12 Blaschke calls on an 8192-point work grid
# (r = 0.85-0.87, about 25 ms), then 23 on a 16384-point grid (r =
# 0.88-0.9) and 20 of r >= 0.9 (60 ms - 0.9 s).  The median then falls
# inside the 8192-point block (sorted positions 46-57) and the 90th
# percentile inside the r = 0.93 block (positions 88-93), so neither
# percentile sits between two cost classes.  The 8192-point block is the
# cheapest class whose latency is steady from run to run; calls of a few
# milliseconds swing by up to 1.8x with the host's load.  inner_outer is
# left out: its outer part is not analytic on these inputs (CHANGES.md).
DECOMPOSE_PLAN = (
    *(("decompose_zn", n, 2) for n in range(2, 9)),
    *(("b_inner_matrix_from", r, 3) for r in (0.3, 0.4, 0.5)),
    *(("decompose_blaschke", r, 2) for r in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)),
    ("n_inner_outer_factorize", 2, 3),
    ("n_inner_outer_factorize", 3, 4),
    ("n_inner_outer_factorize", 4, 3),
    *(("decompose_blaschke", r, 4) for r in (0.85, 0.86, 0.87)),
    ("decompose_blaschke", 0.88, 6),
    ("decompose_blaschke", 0.89, 6),
    ("decompose_blaschke", 0.9, 15),
    ("decompose_blaschke", 0.92, 3),
    ("decompose_blaschke", 0.93, 6),
    ("decompose_blaschke", 0.94, 5),
    ("decompose_blaschke", 0.95, 1),
    ("decompose_blaschke", R_MAX, 1),
)
QUADRATURE_PAIRS = ((0, 0), (1, 1), (2, 4), (0, 9))


class DecomposeWorkload:
    """A seeded stream of 100 library calls at N = 1024 on random degree-24
    polynomials, one new polynomial per op."""

    name = "decompose"
    # Three rounds (about 23 s), so that each op's median leaves out one
    # round slowed by the host.
    min_rounds = 3
    children = False
    # spaces_s: the ops on the Blaschke model spaces (the basis e(j, m))
    spaces_kinds = frozenset({"decompose_blaschke", "b_inner_matrix_from"})

    def __init__(self, hardy, seed: int, workdir: str):
        self.hardy = hardy
        self.dmod = sys.modules["hardy.decomp"]
        self.fmod = sys.modules["hardy.factor"]
        rng = np.random.default_rng(seed)
        plan = [(kind, p) for kind, p, count in DECOMPOSE_PLAN
                for _ in range(count)]
        # A fixed interleaving, the same for every seed, so cheap and
        # costly calls alternate the same way in every run.
        order = np.random.default_rng(0).permutation(len(plan))
        self._ops = [self._make(plan[i], rng) for i in order]

    def _function(self, taylor):
        coeffs = np.zeros(N, dtype=complex)
        coeffs[N // 2:N // 2 + taylor.size] = taylor
        return self.hardy.CircleFunction.from_coeffs(coeffs)

    def _make(self, item, rng):
        kind, p = item
        h, dm, fm = self.hardy, self.dmod, self.fmod
        taylor = random_taylor(rng)
        f = self._function(taylor)
        if kind == "decompose_zn":
            return Op(kind, lambda: dm.decompose_zn(f, p),
                      lambda out: check_zn(out, taylor, p), corrupt_zn)
        if kind == "n_inner_outer_factorize":
            return Op(kind, lambda: fm.n_inner_outer_factorize(f, p),
                      lambda out: check_n_factorization(out, taylor, p))
        zeros = blaschke_zeros(p)
        spec = h.BlaschkeSpec(zeros)
        if kind == "decompose_blaschke":
            return Op(kind, lambda: dm.decompose_blaschke(f, spec),
                      lambda out: check_blaschke(out, taylor, zeros))
        # b_inner_matrix_from: two columns mixing e(0,0), e(1,0), e(2,0)
        # by a seeded isometry U, so the family is jointly B-inner and
        # entry (i, k) must be the constant U[i, k].
        raw = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        U, _ = np.linalg.qr(raw)
        z = orc.circle(N)
        e0 = np.array([orc.basis_element(zeros, j, 0, z) for j in range(3)])
        phis = [h.CircleFunction.from_samples(U[:, k] @ e0) for k in range(2)]
        return Op(kind, lambda: fm.b_inner_matrix_from(phis, spec, 8),
                  lambda out: check_b_inner(out, U))

    def warm_up(self):
        seen = set()
        for op in self._ops:
            if op.kind not in seen:
                seen.add(op.kind)
                op.run()

    def ops(self, traced: bool):
        return self._ops


def check_zn(out, taylor, n):
    scale = float(np.max(np.abs(taylor)))
    expect(len(out.components) == n and len(out.carriers) == n,
           f"decompose_zn({n}) returned {len(out.components)} components")
    z = orc.circle(N)
    recomposed = np.zeros(N, dtype=complex)
    for i, (carrier, comp) in enumerate(zip(out.carriers, out.components)):
        # component i holds f's coefficients at indices i + n k
        want = np.zeros(N, dtype=complex)
        sel = taylor[i::n]
        want[N // 2:N // 2 + n * sel.size:n] = sel
        err = float(np.max(np.abs(np.asarray(comp.coeffs) - want)))
        expect(err <= 1e-12 * scale,
               f"decompose_zn({n}) component {i} off by {err:.3e}")
        unit = np.zeros(N, dtype=complex)
        unit[N // 2 + i] = 1.0
        err = float(np.max(np.abs(np.asarray(carrier.coeffs) - unit)))
        expect(err <= 1e-12, f"decompose_zn({n}) carrier {i} is not z^{i}")
        recomposed += z ** i * orc.horner(taylor[i::n], z ** n)
    err = float(np.max(np.abs(recomposed - orc.horner(taylor, z))))
    expect(err <= 1e-12 * scale * taylor.size,
           f"decompose_zn({n}) pieces do not add up to f ({err:.3e})")


def corrupt_zn(out):
    comp = out.components[0]
    spoiled = np.array(comp.coeffs)
    spoiled[N // 2] += 1e-3
    return types.SimpleNamespace(
        components=(types.SimpleNamespace(coeffs=spoiled),)
        + tuple(out.components[1:]),
        carriers=out.carriers)


def check_n_factorization(bundle, taylor, n):
    expect(bundle.r == 1 and len(bundle.inners) == 1,
           f"n_inner_outer_factorize({n}) returned {bundle.r} inner parts")
    J = np.asarray(bundle.inners[0].samples)
    f1 = np.asarray(bundle.outers[0].samples)
    check_n_factors(J, f1, taylor, n)


def check_n_factors(J, f1, taylor, n):
    M = J.size
    z = orc.circle(M)
    fz = orc.horner(taylor, z)
    err = float(np.sqrt(np.mean(np.abs(J * f1 - fz) ** 2)))
    expect(err <= 1e-9 * float(np.sqrt(np.mean(np.abs(fz) ** 2))),
           f"J * f1 differs from f by {err:.3e} (n = {n})")
    c = orc.coeffs_of(f1)
    freqs = np.fft.fftfreq(M, 1.0 / M).astype(np.int64)
    off = float(np.max(np.abs(c[freqs % n != 0])))
    expect(off <= 1e-12 * float(np.max(np.abs(c))),
           f"f1 is not a series in z^{n}: off-class coefficient {off:.3e}")
    rows = np.array([J * z ** (n * m) for m in range(9)])
    dev = orc.gram_defect(rows)
    expect(dev <= 1e-9, f"{{z^(n m) J}} Gram defect {dev:.3e} (n = {n})")


def check_blaschke(out, taylor, zeros):
    c = np.asarray(out.basis_coefficients)
    energy = float(np.sum(np.abs(taylor) ** 2))
    gap = abs(float(np.sum(np.abs(c) ** 2)) - energy)
    expect(gap <= 1e-9 * energy,
           f"decompose_blaschke Parseval gap {gap:.3e} at zeros {zeros}")
    expect(out.residual <= 1e-8,
           f"decompose_blaschke residual {out.residual:.3e}")
    for j, m in QUADRATURE_PAIRS:
        if m >= c.shape[1]:
            continue
        z = orc.circle(orc.quadrature_grid(zeros, m, taylor.size - 1))
        want = np.mean(orc.horner(taylor, z)
                       * np.conj(orc.basis_element(zeros, j, m, z)))
        err = abs(complex(c[j, m]) - complex(want))
        expect(err <= 1e-10 * np.sqrt(energy),
               f"c[{j},{m}] differs from quadrature by {err:.3e}")


def check_b_inner(matrix, U):
    expect(matrix.rows == 3 and matrix.cols == 2, "wrong B-inner matrix shape")
    expect(matrix.passed and matrix.defect <= 1e-9,
           f"jointly B-inner family graded {matrix.defect:.3e}")
    for i in range(3):
        for k in range(2):
            want = np.zeros(N, dtype=complex)
            want[N // 2] = U[i, k]
            err = float(np.max(np.abs(
                np.asarray(matrix.entries[i][k].coeffs) - want)))
            expect(err <= 1e-10, f"entry ({i}, {k}) is not U[{i}, {k}]")


# --- cli --------------------------------------------------------------------

SPAN_KMAX = 64
SPAN_BAND = 200
# Taylor coefficients of the span generator written to its input file;
# with zero radii at most 0.4 the dropped tail is below 1e-40.
GENERATOR_TERMS = 128
CLI_ZERO_RADIUS = 0.5


class CliResult:
    """Exit code, the child's CPU seconds and peak RSS (None and 0 for an
    in-process call), and the output file."""

    __slots__ = ("code", "cpu_s", "maxrss_kb", "path")

    def __init__(self, code, cpu_s, maxrss_kb, path):
        self.code = code
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.path = path


class CliWorkload:
    """``hardy`` subcommands as fresh subprocesses on small input files.

    The traced run calls ``hardy.cli.main(argv)`` in-process instead
    (``ops(traced=True)``), so the spans see the cli and serialize
    layers.
    """

    name = "cli"
    # Eight rounds (72 commands, about 27 s): a fresh interpreter's time
    # moves with the host's steal time, and a shorter window left two
    # sets of ten runs 13% and 30% apart (interquartile range over the
    # median).
    min_rounds = 8
    children = True
    # spaces_s: the commands on invariant subspaces and the Blaschke basis
    spaces_kinds = frozenset({"blaschke basis", "decompose blaschke",
                              "invariance span", "invariance defect",
                              "invariance wandering"})

    def __init__(self, hardy, seed: int, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(hardy.__file__)))
        rng = np.random.default_rng(seed)
        self.f = random_taylor(rng)
        # The span generator is an inner function, a Blaschke product with
        # two seeded zeros: the setting of the Beurling-type theorem
        # (thm-3.6), where the wandering space is spanned by the
        # generator itself.
        g_zeros = rng.uniform(0.1, 0.4, 2) * np.exp(2j * np.pi * rng.random(2))
        self.g = orc.coeffs_of(orc.blaschke(g_zeros, orc.circle(4096)))[
            :GENERATOR_TERMS]
        self.zeros = blaschke_zeros(CLI_ZERO_RADIUS)
        self._write("f.json", _function_json(self.f))
        self._write("g.json", _function_json(self.g))
        self._write("z.json", {"zeros": [[a.real, a.imag] for a in
                                         map(complex, self.zeros)]})
        p = self._path
        n_inner = 2
        zn = 4
        self.commands = [
            ("decompose zn", ["decompose", "--fn", p("f.json"), "--mode", "zn",
                              "--n", str(zn)],
             lambda o: self._check_zn(o, zn), self._corrupt_zn),
            ("norm audit", ["norm", "audit", "--spec", "p2", "--seed",
                            str(seed)], self._check_audit, None),
            ("blaschke basis", ["blaschke", "basis", "--zeros", p("z.json"),
                                "--mmax", "6", "--check"],
             self._check_basis, None),
            ("decompose blaschke", ["decompose", "--fn", p("f.json"), "--mode",
                                    "blaschke", "--zeros", p("z.json")],
             self._check_blaschke, None),
            ("factor ninner", ["factor", "ninner", "--fn", p("f.json"), "--n",
                               str(n_inner)],
             lambda o: self._check_ninner(o, n_inner), None),
            ("invariance span", ["invariance", "span", "--generators",
                                 p("g.json"), "--power", "2", "--kmax",
                                 str(SPAN_KMAX), "--band", str(SPAN_BAND)],
             self._check_span, None),
            ("invariance defect", ["invariance", "defect", "--subspace",
                                   self._out("invariance span"), "--power",
                                   "2"], self._check_defect, None),
            ("invariance wandering", ["invariance", "wandering", "--subspace",
                                      self._out("invariance span"),
                                      "--power", "2"],
             self._check_wandering, None),
            ("verify thm-4.6", ["verify", "thm-4.6", "--seed", str(seed)],
             self._check_verify, None),
        ]

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, obj):
        with open(self._path(name), "w", encoding="utf-8") as handle:
            json.dump(obj, handle)

    def _out(self, kind):
        return self._path("out-" + kind.replace(" ", "-") + ".json")

    def check_import_path(self, src_hardy: str):
        """Fail unless a CLI subprocess imports hardy from this checkout."""
        code = "import hardy, os; print(os.path.realpath(hardy.__file__))"
        found = subprocess.run([sys.executable, "-c", code], env=self.env,
                               capture_output=True, text=True, check=True,
                               timeout=60).stdout.strip()
        if os.path.dirname(found) != os.path.realpath(src_hardy):
            raise SystemExit(f"CLI subprocess imports hardy from {found}")

    def _spawn(self, argv):
        with open(self._path("stderr.txt"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hardy.cli", *argv],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                cwd=self.workdir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def ops(self, traced: bool):
        cli = sys.modules["hardy.cli"]
        out = []
        for kind, argv, check, corrupt in self.commands:
            path = self._out(kind)
            full = [*argv, "--out", path]
            if traced:
                def run(full=full, path=path):
                    return CliResult(cli.main(full), None, 0, path)
            else:
                def run(full=full, path=path):
                    return CliResult(*self._spawn(full), path)
            out.append(Op(kind, run, _cli_check(check), corrupt))
        return out

    def warm_up(self):
        """Each command once, in-process.  That compiles and reads every
        module a child imports; what else a child warms (FFT plans, BLAS
        buffers) dies with it, so a warm-up in subprocesses would add
        nothing but time.  The first measured round after it is no
        slower than the later ones."""
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with contextlib.redirect_stdout(sink):
                for op in self.ops(traced=True):
                    op.run()

    # -- checks: each recomputes the command's claims from its JSON output

    def _check_zn(self, o, n):
        z = orc.circle(N)
        fz = orc.horner(self.f, z)
        total = np.zeros(N, dtype=complex)
        expect(len(o["components"]) == n, "wrong number of components")
        for i, (carrier, comp) in enumerate(zip(o["carriers"],
                                                o["components"])):
            want = np.zeros(N, dtype=complex)
            sel = self.f[i::n]
            want[:n * sel.size:n] = sel
            err = float(np.max(np.abs(orc.dense_coeffs(comp["coeffs"], N)
                                      - want)))
            expect(err <= 1e-12 * float(np.max(np.abs(self.f))),
                   f"component {i} off by {err:.3e}")
            total += orc.samples_from_json(carrier) * orc.samples_from_json(comp)
        err = float(np.max(np.abs(total - fz)))
        expect(err <= 1e-10 * float(np.max(np.abs(fz))),
               f"zn pieces do not add up to f ({err:.3e})")

    @staticmethod
    def _corrupt_zn(result):
        with open(result.path, encoding="utf-8") as handle:
            o = json.load(handle)
        o["components"][0]["coeffs"][0][1] += 1e-3
        with open(result.path, "w", encoding="utf-8") as handle:
            json.dump(o, handle)
        return result

    @staticmethod
    def _check_audit(o):
        expect(o["spec"].get("kind") == "p_norm" and o["spec"].get("p") == 2,
               "audit of the wrong spec")
        expect(o["axioms"]["passed"] is True, "p2 failed its axiom audit")
        # the L2 norm is rotation symmetric to rounding
        expect(o["rotational_symmetry_deviation"] <= 1e-12,
               "p2 is not rotation symmetric")

    def _check_basis(self, o):
        z = orc.circle(N)
        rows = np.array([orc.basis_element(self.zeros, j, m, z)
                         for m in range(7) for j in range(3)])
        dev = orc.gram_defect(rows)
        expect(dev <= 1e-8, f"independent basis Gram defect {dev:.3e}")
        expect(o["degree"] == 3 and o["pass"] is True
               and o["gram_deviation"] <= 1e-8,
               f"basis check reported {o['gram_deviation']}")

    def _check_blaschke(self, o):
        z = orc.circle(N)
        fz = orc.horner(self.f, z)
        total = np.zeros(N, dtype=complex)
        for j, (carrier, comp) in enumerate(zip(o["carriers"],
                                                o["components"])):
            e = orc.basis_element(self.zeros, j, 0, z)
            err = float(np.max(np.abs(orc.samples_from_json(carrier) - e)))
            expect(err <= 1e-9, f"carrier {j} is not e({j}, 0): {err:.3e}")
            total += e * orc.samples_from_json(comp)
        err = float(np.max(np.abs(total - fz)))
        expect(err <= 1e-8 * float(np.max(np.abs(fz))),
               f"Blaschke pieces do not add up to f ({err:.3e})")
        energy = float(np.sum(np.abs(self.f) ** 2))
        gap = abs(sum(x * x for x in o["component_norms"]) - energy)
        expect(gap <= 1e-9 * energy, f"Parseval gap {gap:.3e}")

    def _check_ninner(self, o, n):
        expect(o["r"] == 1 and o["n"] == n and all(o["outers_passed"]),
               "n-inner factorization did not return one passing pair")
        check_n_factors(orc.samples_from_json(o["inners"][0]),
                        orc.samples_from_json(o["outers"][0]), self.f, n)

    def _span_basis(self):
        with open(self._out("invariance span"), encoding="utf-8") as handle:
            o = orc.strict_json(handle.read())
        Q = np.array([[complex(re, im) for re, im in row]
                      for row in o["basis"]]).T
        return Q

    def _shift(self, k):
        """Taylor coefficients 0..band of z^(2k) g."""
        v = np.zeros(SPAN_BAND + 1, dtype=complex)
        n = min(self.g.size, SPAN_BAND + 1 - 2 * k)
        v[2 * k:2 * k + n] = self.g[:n]
        return v

    def _check_span(self, o):
        expect(o["ambient_bandwidth"] == SPAN_BAND, "wrong band")
        Q = self._span_basis()
        expect(Q.shape[1] == SPAN_KMAX + 1, f"span has dim {Q.shape[1]}")
        dev = float(np.max(np.abs(Q.conj().T @ Q - np.eye(Q.shape[1]))))
        expect(dev <= 1e-10, f"span basis Gram defect {dev:.3e}")
        for k in (0, SPAN_KMAX):
            v = self._shift(k)
            err = float(np.linalg.norm(v - Q @ (Q.conj().T @ v)))
            expect(err <= 1e-10 * float(np.linalg.norm(v)),
                   f"z^{2 * k} g is not in the span ({err:.3e})")

    def _check_defect(self, o):
        Q = self._span_basis()
        expect(o["dim"] == Q.shape[1], "defect reports the wrong dimension")
        worst = max(float(np.linalg.norm(v - Q @ (Q.conj().T @ v)))
                    for v in (self._shift(k) for k in range(1, SPAN_KMAX + 1)))
        expect(worst <= 1e-9 and o["defect"] <= 1e-9,
               f"invariance defect {o['defect']:.3e}, recomputed {worst:.3e}")

    def _check_wandering(self, o):
        # One inner generator: the wandering space of its z^2-invariant
        # span is one-dimensional and spanned by the generator.
        expect(o["rank"] == 1 and len(o["vectors"]) == 1,
               f"wandering rank {o['rank']} for one generator")
        Q = self._span_basis()
        w = orc.dense_coeffs(o["vectors"][0]["coeffs"], N)[:SPAN_BAND + 1]
        expect(abs(float(np.linalg.norm(w)) - 1.0) <= 1e-10,
               "wandering vector is not a unit vector")
        err = float(np.linalg.norm(w - Q @ (Q.conj().T @ w)))
        expect(err <= 1e-9, f"wandering vector leaves the space ({err:.3e})")
        g = self._shift(0)
        align = abs(complex(np.vdot(g, w))) / float(np.linalg.norm(g))
        expect(abs(align - 1.0) <= 1e-9,
               f"wandering vector is not the generator (|<w, g>| = {align})")

    @staticmethod
    def _check_verify(o):
        expect(o["theorem_id"] == "thm-4.6" and o["passed"] is True,
               "thm-4.6 report did not pass")
        for c in o["checks"]:
            expect(c["measured"] <= c["threshold"] and c["pass"] is True,
                   f"thm-4.6 {c['name']} measured {c['measured']}")


def _function_json(taylor):
    return {"n_samples": N,
            "coeffs": [[j, float(c.real), float(c.imag)]
                       for j, c in enumerate(taylor)]}


def _cli_check(check):
    def run(result):
        expect(result.code == 0, f"exit code {result.code}")
        with open(result.path, encoding="utf-8") as handle:
            check(orc.strict_json(handle.read()))
    return run


WORKLOADS = {w.name: w for w in (VerifyWorkload, DecomposeWorkload,
                                 CliWorkload)}
