"""The gwadams benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is always run from the
checkout's `src` (`python -m gwadams.cli` with PYTHONPATH=src), never from
an installed copy.  Workloads:

  verify-cold  fresh `gwadams verify all` processes, GWADAMS_CACHE unset
  cli-calls    a seeded closed-loop sequence of fresh `gwadams` processes
  forms-calc   in-process calls to the public gwadams.forms functions

Each output is checked by a route that shares no code with the program
(refmath.py, and golden hashes taken at the seed commit).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is repeated under tracing.py and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import refmath as R  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SITE = os.path.join(HERE, "site")   # the machine-speed sampler
REFERENCE_PROBE_S = 0.0002          # timings are scaled to this probe time
PY = sys.executable or "python3"
SETUP_BATCH = 7         # fresh imports per batch of setup_s samples
MIN_VERIFY = 2          # cold `verify all` processes per run
MIN_CALLS = 100         # CLI calls per run: p90 has 10 samples beyond it
MIN_FORMS_OPS = 200     # forms ops per run: p95 has 10 samples beyond it
FORMS_OPS = 200         # generated forms ops: one pass
DEADLINE_S = 170        # a run must end within 180 s, even if a child hangs

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


class Bench:
    def __init__(self, args):
        self.args = args
        self.work = os.path.join(HERE, ".work", str(os.getpid()))
        os.makedirs(self.work)
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.trace_files = []
        self.cache_bytes = 0
        self.setup_walls = []
        self.probes = []
        self.last_scale = None      # of the last child that ran the sampler
        self.start = time.perf_counter()

    # -- child processes ------------------------------------------------------

    def env(self, cache=None, probe=True):
        """A controlled environment: the checkout's src, a fixed hash seed,
        GWADAMS_CACHE only when given, and the speed sampler when probing."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") and k != "GWADAMS_CACHE"}
        env["PYTHONPATH"] = SRC + (os.pathsep + SITE if probe else "")
        env["PYTHONHASHSEED"] = "0"
        if probe:
            env["GWADAMS_BENCH_PROBES"] = os.path.join(self.work, "probes")
        if cache is not None:
            env["GWADAMS_CACHE"] = cache
        return env

    def run_child(self, argv, env):
        """(exit code, stdout bytes, wall seconds, peak RSS in MB).  A child
        still running at the run's deadline is killed."""
        timeout = max(1, int(DEADLINE_S - (time.perf_counter() - self.start)))
        out_path = os.path.join(self.work, "stdout")
        with open(out_path, "wb") as out, \
                open(os.path.join(self.work, "stderr"), "wb") as err:
            signal.signal(signal.SIGALRM, _alarm)
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:       # timeout or termination: reap the child
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                if not isinstance(sys.exc_info()[1], Timeout):
                    raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        self.last_scale = None
        probes = env.get("GWADAMS_BENCH_PROBES")
        if probes and os.path.exists(probes):
            with open(probes, encoding="utf-8") as fh:
                samples = [float(x) for x in fh.read().split()]
            os.remove(probes)
            if samples:
                self.probes += samples
                self.last_scale = REFERENCE_PROBE_S / statistics.mean(samples)
        return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0

    def traced(self, argv, env):
        path = os.path.join(self.work, "trace%d.json" % len(self.trace_files))
        self.trace_files.append(path)
        return self.run_child([PY, os.path.join(HERE, "tracing.py"), path]
                              + argv, env)

    def scale(self):
        """Factor taking the last child's times to the reference machine
        speed, from the probe samples taken inside it (site/sitecustomize.py)."""
        return self.last_scale if self.last_scale is not None else 1.0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def corrupt(self, index, stdout):
        """Test hook: spoil one output so the checks are shown to be live."""
        return stdout[:len(stdout) // 2] if index == self.args.corrupt else stdout

    def take_setup(self, count=SETUP_BATCH):
        """Time fresh interpreters importing gwadams.cli.  Batches are taken
        at the start, between and after the workload's units, so the median
        spans the same stretch of time as the workload."""
        if self.args.trace:
            return
        env = self.env()
        for _ in range(1 if self.args.quick else count):
            rc, _, wall, _ = self.run_child([PY, "-c", "import gwadams.cli"], env)
            self.record(rc == 0, "import gwadams.cli")
            self.setup_walls.append(wall * self.scale())

    # -- verify-cold ----------------------------------------------------------

    def verify_cold(self):
        suite = "coefficient-ring" if self.args.quick else "all"
        golden = self.golden["verify " + suite]
        argv = ["verify", suite]
        env = self.env()

        def check(rc, out):
            lines = out.decode("utf-8", "replace").splitlines()
            return (rc == 0 and hashlib.sha256(out).hexdigest() == golden["sha256"]
                    and bool(lines) and lines[-1] == golden["summary"])

        walls, raw, rss = [], [], []
        start = time.perf_counter()
        while True:
            rc, out, wall, mb = self.run_child([PY, "-m", "gwadams.cli"] + argv, env)
            self.record(check(rc, self.corrupt(len(walls), out)), "verify " + suite)
            raw.append(wall)
            walls.append(wall * self.scale())
            rss.append(mb)
            self.take_setup()
            elapsed = time.perf_counter() - start
            next_end = elapsed * (len(walls) + 1) / len(walls)
            if len(walls) >= MIN_VERIFY and next_end > self.args.seconds:
                break
        traced_wall = None
        if self.args.trace:
            rc, out, traced_wall, _ = self.traced(["cli"] + argv, self.env(probe=False))
            self.record(check(rc, out), "traced verify " + suite)
        overhead = traced_wall / statistics.median(raw) if traced_wall else None
        return walls, max(walls), rss, overhead

    # -- cli-calls ------------------------------------------------------------

    def materialize(self, call, deck_dir):
        argv = []
        for a in call["args"]:
            if a == "@u1u2u3":
                argv.append(json.dumps(R.U1U2U3))
            elif a.startswith("@"):
                path = os.path.join(deck_dir, "%s.json" % a[1:])
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"sym": "symmetric", "matrix": [
                        [str(x) for x in row] for row in call["files"][a[1:]]]}, fh)
                argv.append(path)
            else:
                argv.append(a)
        return argv

    def check_call(self, call, rc, out, rng):
        chk = call["check"]
        kind = chk["kind"]
        try:
            text = out.decode("utf-8")
            if kind == "form_equal":
                want = "equal" if chk["want"] else "not-equal"
                return text.strip() == want and rc == (0 if chk["want"] else 1)
            if rc != 0:
                return False
            if kind == "universal":
                return R.universal_ok(chk["poly"], tuple(chk["idx"]),
                                      json.loads(text), rng)
            if kind == "adams":
                ngens = 3 if chk["target"] == "u1u2u3" else (
                    1 if chk["target"] in ("u", "u-tau") else 0)
                return (R.gw_from_obj(json.loads(text), ngens)
                        == R.adams_expected(chk["target"], chk["n"]))
            if kind == "omega":
                lines = text.splitlines()
                return len(lines) == chk["n"] + 1 and all(
                    line.split(": ", 1)[0] == str(k)
                    and R.gw_from_obj(json.loads(line.split(": ", 1)[1]), 0)
                    == R.omega_closed(k) for k, line in enumerate(lines))
            if kind == "golden":
                return hashlib.sha256(out).hexdigest() == self.golden[chk["key"]]
            if kind == "form_matrix":
                obj = json.loads(text)
                mat, sym = chk["want"]
                want_sym = "symmetric" if sym == 1 else "skew"
                return (obj["sym"] == want_sym and R.matrix_key(obj["matrix"], sym)
                        == R.matrix_key(mat, sym))
            if kind == "form_invariants":
                obj = json.loads(text)
                got = {"rank": obj["rank"], "signature": obj["signature"],
                       "disc": obj["disc"],
                       "neg_places": sorted(p for p, s in obj["hasse"].items()
                                            if s == -1)}
                return got == chk["want"]
        except (ValueError, KeyError, TypeError, IndexError):
            return False
        raise ValueError("unknown check %r" % kind)

    def run_deck(self, deck, traced, rng, index0=0):
        deck_dir = os.path.join(self.work, "deck")
        shutil.rmtree(deck_dir, ignore_errors=True)
        os.makedirs(deck_dir)
        cache = os.path.join(deck_dir, "cache.json")
        open(cache, "w").close()        # a fresh, empty cache file per deck
        env = self.env(cache, probe=not traced)
        walls, rss, raw = [], [], 0.0
        for i, call in enumerate(deck):
            argv = self.materialize(call, deck_dir)
            if traced:
                rc, out, wall, mb = self.traced(["cli"] + argv, env)
            else:
                rc, out, wall, mb = self.run_child([PY, "-m", "gwadams.cli"] + argv, env)
                out = self.corrupt(index0 + i, out)
            raw += wall
            if not traced:
                wall *= self.scale()
            self.record(self.check_call(call, rc, out, rng), " ".join(call["args"]))
            walls.append(wall)
            rss.append(mb)
        if traced:
            self.cache_bytes = max(self.cache_bytes, os.path.getsize(cache))
        return walls, rss, raw

    def cli_calls(self):
        rng = random.Random("check:%d" % self.args.seed)
        decks = ([gen.cli_quick_deck(self.args.seed)] if self.args.quick
                 else gen.cli_decks(self.args.seed))
        walls, rss, done = [], [], []
        deck_times = []
        start = time.perf_counter()
        for deck in decks:
            w, r, raw = self.run_deck(deck, False, rng, len(walls))
            walls += w
            rss += r
            done.append(deck)
            deck_times.append(raw)
            self.take_setup()
            elapsed = time.perf_counter() - start
            if self.args.quick or (len(walls) >= MIN_CALLS and elapsed
                                   + statistics.mean(deck_times) > self.args.seconds):
                break
        overhead = None
        if self.args.trace:
            overhead = sum(self.run_deck(deck, True, rng)[2]
                           for deck in done) / sum(deck_times)
        return walls, percentile(walls, 90), rss, overhead

    # -- forms-calc -----------------------------------------------------------

    def forms_calc(self):
        count = 24 if self.args.quick else FORMS_OPS
        ops = [op for op in gen.forms_ops(self.args.seed, count)
               if not (self.args.quick and op["kind"] == "planted_invariants")]
        ops_path = os.path.join(self.work, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump([_op_json(op) for op in ops], fh)
        min_ops = len(ops) if self.args.quick else MIN_FORMS_OPS
        seconds = 0 if self.args.quick else self.args.seconds
        expected = {}

        def worker(argv, traced):
            out_path = os.path.join(self.work, "forms_out.json")
            wargv = [ops_path, out_path] + [str(a) for a in argv]
            if traced:
                rc, _, _, mb = self.traced(["forms"] + wargv, self.env(probe=False))
            else:
                rc, _, _, mb = self.run_child(
                    [PY, os.path.join(HERE, "forms_worker.py")] + wargv, self.env())
            with open(out_path, encoding="utf-8") as fh:
                res = json.load(fh)
            for i, got in enumerate(res["outputs"]):
                k = i % len(ops)
                if k not in expected:
                    expected[k] = forms_expected(ops[k])
                if not traced and i == self.args.corrupt:
                    got = {"corrupted": got}
                self.record(rc == 0 and got == expected[k], ops[k]["kind"])
            return res["times"], mb, res["probes"]

        raw, mb, probes = worker([seconds, min_ops, 0], False)
        scales, fallback = pass_scales(probes, len(ops)), self.scale()
        times = [t * scales.get(i // len(ops), fallback) for i, t in enumerate(raw)]
        self.take_setup(2 * SETUP_BATCH)
        overhead = None
        if self.args.trace:
            overhead = sum(worker([0, 0, len(raw)], True)[0]) / sum(raw)
        return times, percentile(times, 95), [mb], overhead

    # -- metrics --------------------------------------------------------------

    def run(self):
        # One untimed import first, so .pyc compilation stays out of samples.
        rc, _, _, _ = self.run_child([PY, "-c", "import gwadams.cli"],
                                     self.env(probe=False))
        if rc != 0:
            raise SystemExit("cannot import gwadams.cli from %s" % SRC)
        self.take_setup()
        runner = {"verify-cold": self.verify_cold, "cli-calls": self.cli_calls,
                  "forms-calc": self.forms_calc}[self.args.workload]
        samples, tail, rss, overhead = runner()
        speed = statistics.mean(self.probes) if self.probes else REFERENCE_PROBE_S
        if self.args.trace:
            metrics = self.layer_metrics(overhead, speed)
        else:
            metrics = {"setup_s": statistics.median(self.setup_walls),
                       "op_p50_ms": 1000 * statistics.median(samples),
                       "op_tail_ms": 1000 * tail,
                       "ops_per_s": len(samples) / sum(samples),
                       "peak_rss_mb": max(rss)}
            print("probe mean %.4f ms over %d samples" % (1000 * speed, len(self.probes)),
                  file=sys.stderr)
            metrics = {k: {"value": metrics[k], "unit": u}
                       for k, u in END_TO_END.items()}
        for what in self.failures:
            print("failed check: %s" % what, file=sys.stderr)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def layer_metrics(self, overhead, speed):
        totals, stats, import_s = {}, {}, 0.0
        spans = []
        for path in self.trace_files:
            with open(path, encoding="utf-8") as fh:
                t = json.load(fh)
            import_s += t["import_s"] if self.args.workload != "forms-calc" else 0.0
            for key, (calls, self_s, total_s) in t["totals"].items():
                acc = totals.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
            for name, v in t["stats"].items():
                stats[name] = (max(stats.get(name, 0), v) if name.endswith("_max")
                               else stats.get(name, 0) + v)
            spans.append({"file": os.path.basename(path), "spans": t["spans"]})
        with open(os.path.join(HERE, ".work", "spans-%s.json" % self.args.workload),
                  "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

        def calls(key):
            return totals.get(key, [0, 0.0, 0.0])[0]

        def self_s(key):
            return totals.get(key, [0, 0.0, 0.0])[1]

        values = {"cli.import_s": import_s}
        for name, unit in PER_LAYER:
            if name in values:
                continue
            if name == "symfunc.cache_bytes":
                v = self.cache_bytes
            elif name == "trace.overhead_ratio":
                v = overhead
            elif name == "machine.probe_ms":
                v = 1000 * speed
            elif name == "error_rate":
                v = self.failed / self.attempted
            elif name == "lambdaring.symclass_new":
                v = calls("lambdaring.symclass")
            elif name.endswith("_total_s"):
                v = totals.get(name[:-len("_total_s")], [0, 0.0, 0.0])[2]
            elif name.endswith("_calls"):
                v = calls(name[:-len("_calls")])
            elif name.endswith("_s"):
                v = self_s(name[:-len("_s")])
            else:
                v = stats.get(name, 0)
            values[name] = v
        return {k: {"value": v, "unit": dict(PER_LAYER)[k]} for k, v in values.items()}


SUITE_NAMES = ("appendix-a", "appendix-b", "coefficient-ring", "lambda-axioms",
               "adams-hyperbolic", "omega", "borel", "ternary", "forms")

PER_LAYER = [
    ("cli.import_s", "s"), ("cli.render_s", "s"),
    ("report.entries", "count"), ("report.render_s", "s"),
    ("symfunc.universal_calls", "count"), ("symfunc.universal_s", "s"),
    ("symfunc.reduce_calls", "count"), ("symfunc.reduce_s", "s"),
    ("symfunc.universal_terms_max", "count"),
    ("symfunc.universal_coeff_bits_max", "bits"),
    ("symfunc.cache_bytes", "bytes"),
    ("gwring.normalize_calls", "count"), ("gwring.normalize_s", "s"),
    ("gwring.normalize_terms_in", "count"), ("gwring.normalize_terms_out", "count"),
    ("lambdaring.series_calls", "count"), ("lambdaring.series_s", "s"),
    ("lambdaring.adams_calls", "count"), ("lambdaring.adams_s", "s"),
    ("lambdaring.symclass_new", "count"), ("lambdaring.symclass_s", "s"),
    ("polyring.construct_calls", "count"), ("polyring.construct_s", "s"),
    ("polyring.mul_calls", "count"), ("polyring.mul_term_pairs", "count"),
    ("polyring.mul_s", "s"), ("polyring.add_calls", "count"), ("polyring.add_s", "s"),
    ("polyring.substitute_calls", "count"), ("polyring.substitute_s", "s"),
    ("polyring.series_mul_s", "s"),
    ("borel.omega_s", "s"), ("borel.ternary_s", "s"),
    ("forms.construct_s", "s"), ("forms.invariants_s", "s"),
    ("forms.squarefree_calls", "count"), ("forms.squarefree_s", "s"),
    ("forms.squarefree_max_digits", "digits"),
] + [("suite.%s_s" % s, "s") for s in SUITE_NAMES] + [
    ("suite.%s_total_s" % s, "s") for s in SUITE_NAMES] + [
    ("trace.overhead_ratio", "ratio"), ("machine.probe_ms", "ms"),
    ("error_rate", "ratio")]


def pass_scales(probes, per_pass):
    """Scale factor of each pass of the forms worker, from the machine-speed
    samples (op index, seconds) taken during that pass."""
    by_pass = {}
    for i, seconds in probes:
        by_pass.setdefault(i // per_pass, []).append(seconds)
    return {p: REFERENCE_PROBE_S / statistics.mean(v) for p, v in by_pass.items()}


def percentile(data, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    s = sorted(data)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _mat(m):
    return [[str(x) for x in row] for row in m]


def _op_json(op):
    out = {"kind": op["kind"]}
    for key in ("f", "g", "B"):
        if key in op:
            out[key] = _mat(op[key])
    if "n" in op:
        out["n"] = op["n"]
    for key in ("lhs", "rhs"):
        if key in op:
            out[key] = [(c, _mat(m)) for c, m in op[key]]
    return out


def forms_expected(op):
    """The reference answer for one forms op, in forms_worker's canonical form."""
    kind = op["kind"]
    if kind in ("ext_power", "sym_power", "tensor"):
        mat = (R.kron(op["f"], op["g"]) if kind == "tensor"
               else getattr(R, kind)(op["f"], op["n"]))
        return hashlib.sha256(R.matrix_key(mat, 1).encode()).hexdigest()
    if kind in ("invariants", "planted_invariants"):
        return R.invariants(op["diag"])
    if kind in ("lambda2_identity", "gw_pair"):
        return R.invariants(op["lhs_diag"]) == R.invariants(op["rhs_diag"])
    return R.matmul(R.transpose(op["B"]), R.matmul(op["f"], op["B"])) == op["g"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-cold", "cli-calls", "forms-calc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--corrupt", type=int, default=-1,
                    help="spoil the output of op K before checking (tests)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gwadams", "cli.py")):
        print("no gwadams source under %s: run from the root of a checkout"
              % SRC, file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    bench = Bench(args)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
